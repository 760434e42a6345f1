// Command patty is the CLI front-end of the pattern-based
// parallelization tool: the reproduction's stand-in for the paper's
// Visual Studio plugin. Each subcommand corresponds to a piece of the
// process model or of the evaluation:
//
//	detect     phases 1-2: report parallelization candidates
//	run        phases 1-4: write annotated sources, parallel code,
//	           tuning configuration
//	transform  operation mode 2: compile hand-written //tadl: directives
//	verify     operation mode 4: run generated parallel unit tests on
//	           the CHESS-style explorer
//	tune       auto-tuning cycle demo on the performance model
//	study      regenerate the user-study tables (paper §4)
//	eval       corpus precision/recall (paper §5)
//	corpus     list the benchmark corpus
//	sweep      performance-model sweeps (cores / replication / length)
//	fuzz       differential fuzzing of the whole pipeline against the
//	           sequential oracle (generated programs, shrunk repros)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves /debug/pprof/
	"os"
	"path/filepath"
	"strings"

	"patty"
	"patty/internal/baseline"
	"patty/internal/cfg"
	"patty/internal/corpus"
	"patty/internal/pattern"
	"patty/internal/perfmodel"
	"patty/internal/report"
	"patty/internal/sched"
	"patty/internal/study"
)

func main() {
	global := flag.NewFlagSet("patty", flag.ExitOnError)
	global.Usage = usage
	debugAddr := global.String("debug-addr", "",
		"serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. :6060")
	global.Parse(os.Args[1:])
	if len(global.Args()) < 1 {
		usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr)
	}
	cmd, args := global.Args()[0], global.Args()[1:]
	var err error
	switch cmd {
	case "detect":
		err = cmdDetect(args)
	case "run":
		err = cmdRun(args)
	case "transform":
		err = cmdTransform(args)
	case "verify":
		err = cmdVerify(args)
	case "tune":
		err = interruptible(cmdTune, args)
	case "study":
		err = interruptible(cmdStudy, args)
	case "eval":
		err = interruptible(cmdEval, args)
	case "corpus":
		err = cmdCorpus(args)
	case "sweep":
		err = cmdSweep(args)
	case "model":
		err = cmdModel(args)
	case "fuzz":
		err = interruptible(cmdFuzz, args)
	case "serve":
		err = interruptible(cmdServe, args)
	case "worker":
		err = interruptible(cmdWorker, args)
	case "cache":
		err = cmdCache(args)
	case "fleetbench":
		err = interruptible(cmdFleetbench, args)
	case "servebench":
		err = interruptible(cmdServebench, args)
	case "interpbench":
		err = interruptible(cmdInterpbench, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "patty: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "patty %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// interruptible runs a context-aware subcommand under the two-strike
// signal protocol (see withSignals).
func interruptible(cmd func(context.Context, []string) error, args []string) error {
	ctx, stop := withSignals(context.Background())
	defer stop()
	return cmd(ctx, args)
}

// startDebugServer exposes the live metrics collector and the
// standard Go diagnostics over HTTP: expvar at /debug/vars (including
// the "patty.metrics" snapshot) and pprof at /debug/pprof/. Opt-in
// via -debug-addr; intended for watching long eval or tuning runs.
func startDebugServer(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		// Diagnostics are opt-in and best-effort: warn, don't abort
		// the actual command.
		fmt.Fprintf(os.Stderr, "patty: -debug-addr %s: %v (continuing without debug endpoints)\n", addr, err)
		return
	}
	metrics.PublishExpvar("patty.metrics")
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "patty: debug server on %s: %v\n", addr, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "patty: debug endpoints on http://%s/debug/vars and /debug/pprof/\n", ln.Addr())
}

func usage() {
	fmt.Println(`usage: patty [-debug-addr :6060] <command> [flags]

commands:
  detect    [-corpus name | files...]   report parallelization candidates
  run       [-o dir] [files...]         full process: annotate + transform + tuning file
  transform [-o dir] files...           compile hand-written //tadl: directives
  verify    [-corpus name | files...]   run generated parallel unit tests (CHESS-style)
  tune      [-algo linear|nelder-mead|tabu|random] [-budget n]
            [-checkpoint f.ckpt] [-fault-rate p] [-eval-delay ms]
            [-workers url1,url2,...] [-cache-dir dir]
            auto-tuning; with -checkpoint a killed run resumes where it
            stopped, faulting configs are quarantined by a breaker;
            with -workers the search is sharded across patty worker
            processes and merged to the identical result; with
            -cache-dir measured configs persist in a content-addressed
            store and later runs answer from it
  study     [-seed n] [-measured] [-checkpoint f.ckpt]
            regenerate the user-study tables
  eval      [-static] [-engine auto|tree|vm]
            corpus precision/recall vs baselines
  corpus                                list benchmark programs
  model     [-corpus name | files...] [-dot cfg|callgraph|stages] [-fn name]
  sweep     [-kind cores|replication|length]
  fuzz      [-seed n] [-n m] [-shrink] [-faults] [-check-seed s]
            [-checkpoint f.ckpt] [-engine auto|tree|vm]
            differential fuzzing: generated programs through
            detect -> transform -> execute vs the sequential oracle
            (-faults adds deterministic fault-injection legs)
  serve     [-addr host:port] [-workers n] [-queue n] [-job-timeout d]
            [-drain-timeout d] [-checkpoint-dir dir] [-store-dir dir]
            [-tenant-rate r] [-tenant-burst n]
            supervised job service over HTTP: submit tune/fuzz/study
            jobs, admission control with load shedding, graceful drain;
            a tune job with a "workers" list runs as a fleet search;
            with -store-dir the job ledger survives a kill (WAL +
            snapshot) and tenants get fair-share dispatch with
            per-tenant quotas (429) distinct from overload sheds (503);
            with -cache-dir resubmitted deterministic jobs (matched by
            canonical program hash + spec) answer from the evaluation
            store without re-running, across tenants and restarts
  worker    [-addr host:port] [-workers n] [-queue n] [-cache-dir dir]
            [-cache-max-bytes n] [-drain-timeout d]
            fleet worker: evaluates tuning shards leased by a
            coordinator (patty tune -workers ...); with -cache-dir
            every measurement lands in the shared content-addressed
            store, so a restarted worker answers instead of re-running
  cache     -dir d [stats|verify|gc] [-max-bytes n]
            operate on a content-addressed evaluation store: print its
            stats, run a read-only integrity scan (non-zero exit on
            damage), or compact away superseded and quarantined data
  fleetbench [-counts 1,2,4] [-eval-delay ms] [-o BENCH_fleet.json]
            wall-clock baseline of the distributed search vs the local
            reference, with the determinism check inline
  servebench [-duration d] [-clients n] [-hog-factor k] [-tenant-rate r]
            [-smoke] [-o BENCH_serve.json]
            multi-tenant load harness for patty serve: one hog tenant
            at k-times the others' concurrency; records per-tenant
            latency percentiles, goodput and 429/503 counts, and fails
            if max/min goodput exceeds the fairness gate
  interpbench [-passes n] [-fuzz-n m] [-min-speedup x] [-o BENCH_interp.json]
            bytecode VM vs tree-walker throughput on the corpus; fails
            unless the VM reaches the -min-speedup gate

tune, study, eval, fuzz, serve and worker stop cleanly on the first
SIGINT or SIGTERM (printing partial results); a second signal
hard-exits.`)
}

// loadSources reads files or a corpus program.
func loadSources(corpusName string, files []string) (map[string]string, *patty.Workload, error) {
	if corpusName != "" {
		p := corpus.Get(corpusName)
		if p == nil {
			return nil, nil, fmt.Errorf("unknown corpus program %q (try: patty corpus)", corpusName)
		}
		w := p.Workload()
		return map[string]string{p.Name + ".go": p.Source}, &w, nil
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no input files")
	}
	srcs := make(map[string]string)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		srcs[f] = string(data)
	}
	return srcs, nil, nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	corpusName := fs.String("corpus", "", "analyze a corpus benchmark instead of files")
	staticOnly := fs.Bool("static", false, "skip the dynamic analysis")
	fs.Parse(args)
	srcs, workload, err := loadSources(*corpusName, fs.Args())
	if err != nil {
		return err
	}
	if *staticOnly {
		workload = nil
	}
	rep, err := patty.Detect(srcs, workload)
	if err != nil {
		return err
	}
	fmt.Printf("%d candidate(s):\n", len(rep.Candidates))
	for _, c := range rep.Candidates {
		fmt.Printf("  %-14s %-24s %s\n", c.Kind, c.Pos, c.Arch)
		for _, r := range c.Reasons {
			fmt.Printf("      - %s\n", r)
		}
	}
	fmt.Printf("%d rejection(s):\n", len(rep.Rejected))
	for _, r := range rep.Rejected {
		fmt.Printf("  %-24s %s\n", r.Pos, r.Reason)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	outDir := fs.String("o", "patty-out", "output directory")
	corpusName := fs.String("corpus", "", "run on a corpus benchmark")
	fs.Parse(args)
	srcs, workload, err := loadSources(*corpusName, fs.Args())
	if err != nil {
		return err
	}
	p := patty.NewProcess(srcs, patty.Options{
		Workload: workload,
		Log:      func(s string) { fmt.Println(s) },
	})
	arts, err := p.Run()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for name, text := range arts.AnnotatedSources {
		path := filepath.Join(*outDir, "annotated_"+filepath.Base(name))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	for _, out := range arts.Outputs {
		path := filepath.Join(*outDir, strings.ToLower(out.FuncName)+".go")
		if err := os.WriteFile(path, []byte(out.Code), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	tpath := filepath.Join(*outDir, "tuning.json")
	if err := arts.TuningConfig.Save(tpath); err != nil {
		return err
	}
	fmt.Println("wrote", tpath)
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	outDir := fs.String("o", "patty-out", "output directory")
	fs.Parse(args)
	srcs, _, err := loadSources("", fs.Args())
	if err != nil {
		return err
	}
	arts, err := patty.TransformAnnotated(srcs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, out := range arts.Outputs {
		path := filepath.Join(*outDir, strings.ToLower(out.FuncName)+".go")
		if err := os.WriteFile(path, []byte(out.Code), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	corpusName := fs.String("corpus", "", "verify a corpus benchmark")
	def := patty.ValidateOptions()
	bound := fs.Int("bound", def.PreemptionBound, "preemption bound of an unreduced search (-1: exhaustive search under partial-order reduction)")
	maxSched := fs.Int("max-schedules", def.MaxSchedules, "schedule budget per test")
	fs.Parse(args)
	srcs, workload, err := loadSources(*corpusName, fs.Args())
	if err != nil {
		return err
	}
	p := patty.NewProcess(srcs, patty.Options{Workload: workload})
	if _, err := p.Run(); err != nil {
		return err
	}
	results, err := p.Validate(sched.Options{PreemptionBound: *bound, MaxSchedules: *maxSched})
	if err != nil {
		return err
	}
	buggy := 0
	for _, r := range results {
		status := "OK"
		if r.Result.Buggy() {
			status = "BUGGY"
			buggy++
		}
		fmt.Printf("%-6s %-40s %d schedules, %d races, %d deadlocks, %d failures\n",
			status, r.Test.Name, r.Result.Schedules,
			len(r.Result.Races), len(r.Result.Deadlocks), len(r.Result.Failures))
		for _, race := range r.Result.Races {
			fmt.Printf("       race: %s\n", race)
		}
	}
	if buggy > 0 {
		return fmt.Errorf("%d test(s) found bugs", buggy)
	}
	return nil
}

// newFlagSet is the shared flag-set constructor of the subcommands.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

func cmdStudy(ctx context.Context, args []string) error {
	fs := newFlagSet("study")
	seed := fs.Int64("seed", study.DefaultSeed, "simulation seed")
	measured := fs.Bool("measured", false, "recompute the tool outcome with the live detector (slow)")
	ckpt := fs.String("checkpoint", "", "cache the measured outcome in this snapshot file")
	fs.Parse(args)
	outcome := study.PaperOutcome()
	if *measured {
		var err error
		if *ckpt != "" {
			var resumed bool
			outcome, resumed, err = study.MeasuredOutcomeCached(*ckpt)
			if err == nil && resumed {
				fmt.Printf("measured tool outcome restored from %s\n", *ckpt)
			}
		} else {
			outcome, err = study.MeasuredOutcome()
		}
		if err != nil {
			return err
		}
		fmt.Printf("measured tool outcome on raytrace: %+v\n\n", outcome)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res := study.Run(*seed, outcome)
	fmt.Print(res.FormatAll())
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := newFlagSet("eval")
	staticOnly := fs.Bool("static", false, "evaluate without dynamic analysis")
	noObs := fs.Bool("no-obs", false, "skip the runtime observability probe")
	engineFlag := fs.String("engine", "auto", "interpreter engine for dynamic analysis: auto | tree | vm")
	fs.Parse(args)
	if err := setDefaultEngine(*engineFlag); err != nil {
		return err
	}
	dets := []baseline.Detector{
		baseline.Patty{},
		baseline.HotspotProfiler{},
		baseline.StaticConservative{},
	}
	if *staticOnly {
		dets[0] = baseline.Patty{Options: pattern.Options{StaticOnly: true}}
	}
	scores, err := corpus.EvaluateCtx(ctx, dets, corpus.All(), !*staticOnly)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d programs, %d LoC (paper §5 detection-quality study)\n\n",
		len(corpus.All()), corpus.TotalLoC())
	fmt.Printf("%-22s %4s %4s %4s %10s %8s %8s\n", "detector", "TP", "FP", "FN", "precision", "recall", "F1")
	for _, s := range scores {
		fmt.Printf("%-22s %4d %4d %4d %10.2f %8.2f %8.2f\n",
			s.Detector, s.TP, s.FP, s.FN, s.Precision, s.Recall, s.F1)
	}
	if !*noObs {
		analyses, err := probeSafe(metrics)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(report.BottleneckTable(analyses))
	}
	return nil
}

func cmdCorpus(args []string) error {
	fmt.Printf("%-14s %5s %4s  %s\n", "program", "LoC", "GT", "description")
	for _, p := range corpus.All() {
		fmt.Printf("%-14s %5d %4d  %s\n", p.Name, p.LoC(), len(p.Truth), p.Description)
	}
	fmt.Printf("total: %d programs, %d LoC\n", len(corpus.All()), corpus.TotalLoC())
	return nil
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	corpusName := fs.String("corpus", "", "analyze a corpus benchmark")
	dot := fs.String("dot", "", "emit Graphviz DOT: cfg | callgraph | stages")
	fnName := fs.String("fn", "", "function for -dot cfg")
	staticOnly := fs.Bool("static", false, "skip the dynamic analysis")
	fs.Parse(args)
	srcs, workload, err := loadSources(*corpusName, fs.Args())
	if err != nil {
		return err
	}
	if *staticOnly {
		workload = nil
	}
	proc := patty.NewProcess(srcs, patty.Options{Workload: workload})
	if err := proc.CreateModel(); err != nil {
		return err
	}
	if err := proc.AnalyzePatterns(); err != nil {
		return err
	}
	arts := proc.Artifacts()
	switch *dot {
	case "":
		fmt.Println(report.ModelSummary(arts.Model))
		fmt.Println()
		fmt.Print(report.DetectionReport(proc.Program(), arts.Report))
	case "cfg":
		fn := proc.Program().Func(*fnName)
		if fn == nil {
			return fmt.Errorf("-dot cfg needs -fn <name> (have: %v)", proc.Program().FuncNames())
		}
		fmt.Print(report.CFGDot(cfg.Build(fn)))
	case "callgraph":
		fmt.Print(report.CallGraphDot(arts.Model))
	case "stages":
		for _, c := range arts.Report.Candidates {
			if c.Kind == pattern.PipelineKind {
				fmt.Print(report.StageGraphDot(c))
				return nil
			}
		}
		return fmt.Errorf("no pipeline candidate")
	default:
		return fmt.Errorf("unknown -dot kind %q", *dot)
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	kind := fs.String("kind", "cores", "cores | replication | length")
	fs.Parse(args)
	stages := []perfmodel.Stage{
		{Name: "crop", Time: 200, Replicable: true},
		{Name: "histo", Time: 240, Replicable: true},
		{Name: "oil", Time: 1600, Jitter: 300, Replicable: true},
		{Name: "conv", Time: 180, Replicable: true},
		{Name: "add", Time: 60},
	}
	base := perfmodel.Config{Cores: 8, Items: 256, Replication: []int{1, 1, 4, 1, 1}}
	switch *kind {
	case "cores":
		fmt.Println(perfmodel.FormatPoints("speedup vs cores",
			perfmodel.CoreSweep(stages, base, []int{1, 2, 4, 8, 16, 32})))
	case "replication":
		fmt.Println(perfmodel.FormatPoints("speedup vs oil replication",
			perfmodel.ReplicationSweep(stages, base, 2, []int{1, 2, 3, 4, 6, 8})))
	case "length":
		fmt.Println(perfmodel.FormatPoints("speedup vs stream length",
			perfmodel.StreamLengthSweep(stages, base, []int{1, 2, 4, 8, 16, 64, 256, 1024})))
	default:
		return fmt.Errorf("unknown sweep kind %q", *kind)
	}
	return nil
}
