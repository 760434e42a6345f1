//go:build linux

// Command bench is the repository's benchmark: four seeded workloads
// that together cover what a Patty user waits for — a verified
// program, a fuzzing gate, a tuned configuration and a served job —
// each checked against a reference, each run in a fresh child process,
// with a separate traced run that splits every operation into the
// layers it spends time in.
//
//	bash bench/run.sh -seed 1 -o out.json          all workloads, envelope to out.json
//	bash bench/run.sh -trace -o traced.json        untraced + traced run, per-layer metrics
//	bash bench/run.sh -workload fuzz-gate -seed 3  one workload, one JSON result line
//	bash bench/run.sh -compare a.json b1.json,b2.json
//
// See bench/README.md for the workloads, the metrics and how to read
// a comparison.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// workloads in the order a full run executes them. BENCHMARK.json and
// README.md say why each was chosen.
var workloads = []string{"verify-corpus", "fuzz-gate", "tune-fleet", "serve-mix"}

// minOps keeps a time-bounded run long enough to report op_p90_ms,
// which needs ten samples beyond it.
const minOps = 100

// config is everything a child needs to run one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	ops      int // fixed op count; 0 means time-bounded (seconds, then minOps)
	trace    bool
	spans    bool // return spans to the parent (-trace-out)
	patty    string
	workdir  string
}

func (c config) childArgs() []string {
	args := []string{
		"-child", c.workload,
		"-seed", fmt.Sprint(c.seed),
		"-seconds", fmt.Sprint(c.seconds),
		"-ops", fmt.Sprint(c.ops),
		"-trace=" + fmt.Sprint(c.trace),
		"-patty", c.patty,
		"-workdir", c.workdir,
	}
	if c.spans {
		args = append(args, "-spans")
	}
	return args
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	workload := fs.String("workload", "", "run one workload and print one JSON result line (the per-run interface)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time per workload (whole passes, at least 100 ops)")
	fs.IntVar(&cfg.ops, "ops", 0, "run exactly this many ops instead of -seconds (smoke tests)")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	out := fs.String("o", "", "write the envelope (all workloads) to this file")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file")
	compare := fs.Bool("compare", false, "compare envelopes: -compare old[,old...] new[,new...]")
	child := fs.String("child", "", "internal: run one workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: prepare the inputs, print ready, exit")
	spans := fs.Bool("spans", false, "internal: include spans in the child result")
	fs.StringVar(&cfg.patty, "patty", "", "internal: patty binary")
	fs.StringVar(&cfg.workdir, "workdir", "", "scratch and build directory (default <repo>/.bench_build)")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	cfg.spans = *spans

	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case *child != "":
		cfg.workload = *child
		return runChild(cfg, *setupOnly, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(root, ".bench_build")
	}
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		cfg.workload = *workload
		return runOne(root, cfg, stdout, stderr)
	}
	return runFull(root, cfg, *out, *traceOut, stdout, stderr)
}

// normalizeArgs accepts "--trace 0|1" (value as a separate argument)
// beside the usual boolean forms "-trace" and "-trace=1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// repoRoot finds the module root (the directory holding go.mod with
// cmd/patty beside it) from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "patty")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the patty repository (no go.mod with cmd/patty found)")
		}
		dir = parent
	}
}

// buildPatty builds the patty binary once per invocation. It runs
// before any child starts, so its cost never lands in setup_s.
func buildPatty(root, workdir string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(workdir, "patty")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/patty")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building patty: %v\n%s", err, out)
	}
	return bin, nil
}

// runOne is the per-run interface: one workload, one JSON line.
func runOne(root string, cfg config, stdout, stderr io.Writer) int {
	bin, err := buildPatty(root, cfg.workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg.patty = bin
	res, err := spawnChild(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := runLine(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "bench: failure:", e)
	}
	if res.Invalid != "" {
		fmt.Fprintln(stderr, "bench: invalid run:", res.Invalid)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// spawnChild runs one workload in a fresh process and decodes the
// result it prints as its last line.
func spawnChild(cfg config, stderr io.Writer) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, cfg.childArgs()...)
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: bad child result: %w", cfg.workload, err)
	}
	return &res, nil
}

// runChild executes one workload in this process and prints its
// result as one JSON line.
func runChild(cfg config, setupOnly bool, stdout, stderr io.Writer) int {
	if setupOnly {
		if err := prepare(cfg); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, readyLine)
		return 0
	}
	// The run's files are left in place. Deleting a run's few thousand
	// small files slowed every fsync-bound job of the next runs by up to
	// 60% on an ext4 disk mounted with online discard, so a series of
	// runs drifted; remove <workdir>/runs between series instead.
	runs := filepath.Join(cfg.workdir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// A run whose load generator fell behind its schedule (an invalid
	// serve-mix run, when the host stalled the generator) measured the
	// generator, not the program: it is repeated once, on fresh
	// directories. A run with failed ops is never repeated, so a repeat
	// cannot hide a wrong answer.
	var res *childResult
	for attempt := 0; ; attempt++ {
		scratch, err := os.MkdirTemp(runs, cfg.workload+"-")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		c := cfg
		c.workdir = scratch
		if res, err = runWorkload(c); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
			return 1
		}
		if res.Invalid == "" || res.Failed > 0 || attempt == invalidRepeats {
			break
		}
		fmt.Fprintf(stderr, "bench: %s: %s; repeating the run\n", cfg.workload, res.Invalid)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// invalidRepeats is how often an invalid run is repeated. One repeat
// keeps a serve-mix run within a minute. On the 2-vCPU reference VM,
// while other tenants stalled it, three to five runs in ten were
// invalid, and their op_p50_ms read up to 2.6 times the valid runs'.
const invalidRepeats = 1

// readyLine is what a set-up probe prints once its inputs exist.
const readyLine = "bench: ready"

// startReady starts cmd and returns how long it took to print a line
// containing marker, that line, and a channel that delivers cmd.Wait's
// result once the process exits (receive from it exactly once).
func startReady(cmd *exec.Cmd, marker string) (time.Duration, string, <-chan error, error) {
	w := &lineWatcher{marker: marker, found: make(chan string, 1)}
	cmd.Stdout = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case line := <-w.found:
		return time.Since(t0), line, exited, nil
	case err := <-exited:
		return 0, "", nil, fmt.Errorf("%s exited before printing %q: %v", cmd.Path, marker, err)
	case <-time.After(opTimeout):
		cmd.Process.Kill()
		<-exited
		return 0, "", nil, fmt.Errorf("%s did not print %q within %s", cmd.Path, marker, opTimeout)
	}
}

// lineWatcher is a command's stdout that reports the first line
// containing marker and discards the rest. exec calls Write from one
// goroutine only.
type lineWatcher struct {
	marker string
	found  chan string // buffered: sent to at most once
	buf    []byte
	seen   bool
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	if w.seen {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if strings.Contains(line, w.marker) {
			w.seen, w.buf = true, nil
			w.found <- line
			break
		}
	}
	return len(p), nil
}

// hostInfo fills the envelope's host record.
func hostInfo(env *envelope) {
	env.Host, _ = os.Hostname()
	env.NProc = runtime.NumCPU()
	env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	env.Go = runtime.Version()
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	env.Commit = "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
}
