//go:build linux

package main

import (
	"embed"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"patty"
	"patty/internal/core"
	"patty/internal/corpus"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/seed"
	"patty/internal/source"
)

//go:embed testdata/*.golden
var testdata embed.FS

// verifyOutcome is what one verify-corpus op produced, in the golden
// file's terms.
type verifyOutcome struct {
	Outputs, Params, Tests int
	Verdict                string   // none, clean or buggy
	Candidates             []string // sorted Fn#loop:kind
}

func (o verifyOutcome) String() string {
	c := "-"
	if len(o.Candidates) > 0 {
		c = strings.Join(o.Candidates, ",")
	}
	return fmt.Sprintf("%d %d %d %s %s", o.Outputs, o.Params, o.Tests, o.Verdict, c)
}

// parseVerifyGolden reads testdata/verify_corpus.golden.
func parseVerifyGolden(text string) (map[string]verifyOutcome, error) {
	out := make(map[string]verifyOutcome)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 6 {
			return nil, fmt.Errorf("verify golden line %d: want 6 fields, got %d", n+1, len(f))
		}
		var o verifyOutcome
		var err error
		for i, dst := range []*int{&o.Outputs, &o.Params, &o.Tests} {
			if *dst, err = strconv.Atoi(f[1+i]); err != nil {
				return nil, fmt.Errorf("verify golden line %d: %w", n+1, err)
			}
		}
		o.Verdict = f[4]
		if f[5] != "-" {
			o.Candidates = strings.Split(f[5], ",")
			sort.Strings(o.Candidates)
		}
		out[f[0]] = o
	}
	return out, nil
}

// verifyInputs is the prepared verify-corpus run: the corpus and the
// reference each op is checked against.
type verifyInputs struct {
	progs  []*corpus.Program
	golden map[string]verifyOutcome
}

func prepareVerify() (*verifyInputs, error) {
	text, err := testdata.ReadFile("testdata/verify_corpus.golden")
	if err != nil {
		return nil, err
	}
	g, err := parseVerifyGolden(string(text))
	if err != nil {
		return nil, err
	}
	in := &verifyInputs{progs: corpus.All(), golden: g}
	for _, p := range in.progs {
		if _, ok := g[p.Name]; !ok {
			return nil, fmt.Errorf("verify golden has no row for corpus program %s", p.Name)
		}
	}
	return in, nil
}

// passOrder is the seeded program order of pass k: every pass covers
// the whole corpus once.
func passOrder(s int64, k, n int) []int {
	return rand.New(rand.NewSource(seed.Mix(s, int64(k)))).Perm(n)
}

// runVerify is the verify-corpus workload: a closed loop, one client,
// each op Parallelize plus Validate (when there are unit tests) on one
// corpus program with its sample workload.
func runVerify(e *env) error {
	in, err := prepareVerify()
	if err != nil {
		return err
	}
	verifyLoop(e, in)
	return nil
}

// verifyLoop runs the passes over in's programs.
func verifyLoop(e *env, in *verifyInputs) {
	n := len(in.progs)
	var order []int
	e.loop(n, func(i int) {
		if i%n == 0 {
			order = passOrder(e.cfg.seed, i/n, n)
		}
		p := in.progs[order[i%n]]
		got, err := verifyOp(e, i, p)
		switch {
		case err != nil:
			e.res.fail("%s: %v", p.Name, err)
		case got.String() != in.golden[p.Name].String():
			e.res.fail("%s: got %q, golden %q", p.Name, got, in.golden[p.Name])
		}
	})
}

// verifyOp runs one program through the whole process and records
// its latency. Traced, it calls the four phases one by one (what
// Process.Run does) so each is timed, then runs the model-creation
// replica after the op.
func verifyOp(e *env, op int, p *corpus.Program) (verifyOutcome, error) {
	sources := map[string]string{p.Name + ".go": p.Source}
	w := p.Workload()
	proc := patty.NewProcess(sources, patty.Options{Workload: &w})
	tr := e.tr
	t0 := time.Now()
	root := tr.begin("op", 0, op)
	var phaseMs [4]float64
	var err error
	if tr == nil {
		_, err = proc.Run()
	} else {
		phases := []struct {
			name string
			f    func() error
		}{
			{"core.create_model", proc.CreateModel},
			{"pattern.detect", proc.AnalyzePatterns},
			{"tadl.annotate", proc.DeriveArchitecture},
			{"transform.code", proc.TransformCode},
		}
		for k, ph := range phases {
			if err == nil {
				phaseMs[k] = tr.do(ph.name, root, op, func() { err = ph.f() })
			}
		}
	}
	if err != nil {
		tr.end(root)
		return verifyOutcome{}, err
	}
	arts := proc.Artifacts()
	// Process.Validate refuses a finished run with zero candidates (its
	// unit-test list is nil), so validation runs only when there is
	// something to validate.
	var results []core.ValidationResult
	var validateMs float64
	if len(arts.UnitTests) > 0 {
		validateMs = tr.do("sched.validate", root, op, func() { results, err = patty.Validate(proc) })
		if err != nil {
			tr.end(root)
			return verifyOutcome{}, err
		}
	}
	e.opDone(time.Since(t0))
	e.res.OpInput = append(e.res.OpInput, p.Name)
	tr.end(root)

	out := verifyOutcome{
		Outputs: len(arts.Outputs),
		Params:  len(arts.TuningConfig.Entries),
		Tests:   len(arts.UnitTests),
		Verdict: "none",
	}
	schedules := 0
	if len(arts.UnitTests) > 0 {
		out.Verdict = "clean"
		for _, r := range results {
			schedules += r.Result.Schedules
			if r.Result.Buggy() {
				out.Verdict = "buggy"
			}
		}
	}
	for _, c := range arts.Report.Candidates {
		fn := proc.Program().Func(c.Fn)
		idx := -1
		for k, l := range fn.Loops() {
			if fn.StmtID(l) == c.LoopID {
				idx = k
			}
		}
		out.Candidates = append(out.Candidates, fmt.Sprintf("%s#%d:%s", c.Fn, idx, c.Kind))
	}
	sort.Strings(out.Candidates)
	if tr == nil {
		return out, nil
	}
	if len(arts.UnitTests) > 0 {
		e.res.layer("sched.validate_ms", validateMs)
		e.res.layer("sched.schedules", float64(schedules))
	}
	e.res.layer("core.other_ms", tr.self(root))
	e.res.layer("pattern.detect_ms", phaseMs[1])
	e.res.layer("tadl.annotate_ms", phaseMs[2])
	e.res.layer("transform.code_ms", phaseMs[3])
	return out, modelReplica(e, op, sources, w, phaseMs[0])
}

// modelReplica splits CreateModel into parse, model build and dynamic
// profiling by running the same three calls on the same input outside
// the op, and measures the bytecode compile cost of one machine: a
// first run on a fresh machine minus a warm rerun on the same machine.
// createMs is the measured CreateModel time the split apportions.
func modelReplica(e *env, op int, sources map[string]string, w model.Workload, createMs float64) error {
	tr := e.tr
	root := tr.begin("replica", 0, op)
	defer tr.end(root)
	var prog *source.Program
	var err error
	parse := tr.do("source.parse", root, op, func() { prog, err = source.ParseSources(sources) })
	if err != nil {
		return err
	}
	var m *model.Model
	build := tr.do("model.build", root, op, func() { m = model.Build(prog) })
	profile := tr.do("interp.profile", root, op, func() { err = m.EnrichDynamic(w) })
	if err != nil {
		return err
	}
	total := parse + build + profile
	e.res.layer("source.parse_ms", createMs*parse/total)
	e.res.layer("model.build_ms", createMs*build/total)
	e.res.layer("interp.profile_ms", createMs*profile/total)

	im := interp.NewMachine(prog)
	var prof *interp.Profile
	first := tr.do("interp.first_run", root, op, func() { _, prof, err = im.Run(w.Entry, w.Args(im), interp.Options{}) })
	if err != nil {
		return err
	}
	warm := tr.do("interp.warm_run", root, op, func() { _, _, err = im.Run(w.Entry, w.Args(im), interp.Options{}) })
	if err != nil {
		return err
	}
	e.res.layer("interp.compile_ms", first-warm)
	runs := 1 // the ranking run, then one traced run per executed loop
	for _, lm := range m.AllLoops() {
		if prof.Count[interp.Ref{Fn: lm.Fn.Name, Stmt: lm.LoopID}] > 0 {
			runs++
		}
	}
	e.res.layer("interp.profile_runs", float64(runs))
	return nil
}
