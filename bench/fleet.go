//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"patty/internal/fleet"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/perfmodel"
	"patty/internal/tuning"
)

// The patty tune settings of every tune-fleet op.
const (
	tuneBudget    = 150
	tuneEvalDelay = 10 * time.Millisecond
	fleetWorkers  = 2
)

// tuneCores are the modelled core counts a pass covers once each.
var tuneCores = []int{4, 5, 6, 7, 8, 9, 10, 11}

// tuneRef is one row of testdata/tune.golden.
type tuneRef struct {
	best map[string]int
	cost float64
}

// tuneGolden maps a modelled core count to its reference result.
type tuneGolden map[int]tuneRef

func loadTuneGolden() (tuneGolden, error) {
	text, err := testdata.ReadFile("testdata/tune.golden")
	if err != nil {
		return nil, err
	}
	return parseTuneGolden(string(text))
}

func parseTuneGolden(text string) (tuneGolden, error) {
	g := make(tuneGolden)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("tune golden line %d: want 3 fields", n+1)
		}
		cores, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("tune golden line %d: %w", n+1, err)
		}
		cost, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tune golden line %d: %w", n+1, err)
		}
		best := make(map[string]int)
		for _, kv := range strings.Split(f[1], ",") {
			k, v, ok := strings.Cut(kv, "=")
			x, err := strconv.Atoi(v)
			if !ok || err != nil {
				return nil, fmt.Errorf("tune golden line %d: bad assignment %q", n+1, kv)
			}
			best[k] = x
		}
		g[cores] = tuneRef{best, cost}
	}
	return g, nil
}

// check compares a tune result with the reference for cores.
func (g tuneGolden) check(cores int, best map[string]int, cost float64) error {
	want, ok := g[cores]
	if !ok {
		return fmt.Errorf("no tune golden for cores=%d", cores)
	}
	if !reflect.DeepEqual(best, want.best) || cost != want.cost {
		return fmt.Errorf("cores=%d: best %v cost %.0f, golden %v cost %.0f", cores, best, cost, want.best, want.cost)
	}
	return nil
}

// tuneModel rebuilds the objective `patty tune` optimizes from the
// stage table in cmd/patty/tune.go. A copy that drifts from it fails
// the golden check, so it cannot pass silently.
func tuneModel(cores int) (dims []tuning.Dim, start map[string]int, obj tuning.Objective) {
	stages := []perfmodel.Stage{
		{Name: "crop", Time: 200, Replicable: true},
		{Name: "histo", Time: 240, Replicable: true},
		{Name: "oil", Time: 1600, Jitter: 300, Replicable: true},
		{Name: "conv", Time: 180, Replicable: true},
		{Name: "add", Time: 60},
	}
	dims = []tuning.Dim{
		{Key: "repl.oil", Min: 1, Max: 8},
		{Key: "fuse.crop.histo", Min: 0, Max: 1},
		{Key: "sequential", Min: 0, Max: 1},
	}
	start = map[string]int{"repl.oil": 1, "fuse.crop.histo": 0, "sequential": 1}
	obj = func(a map[string]int) float64 {
		cfg := perfmodel.Config{
			Cores:       cores,
			Items:       256,
			Replication: []int{1, 1, a["repl.oil"], 1, 1},
			Fuse:        []bool{a["fuse.crop.histo"] == 1, false, false, false},
			Sequential:  a["sequential"] == 1,
		}
		return float64(perfmodel.Simulate(stages, cfg).Makespan)
	}
	return dims, start, obj
}

// delayed adds the fixed evaluation wait that stands in for a measured
// run (patty tune -eval-delay).
func delayed(obj tuning.Objective) tuning.Objective {
	return func(a map[string]int) float64 {
		time.Sleep(tuneEvalDelay)
		return obj(a)
	}
}

// pattyProc is one long-running patty process (worker or server).
type pattyProc struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer // shown only when the process does not exit cleanly
	exited <-chan error
}

// startPatty starts a patty subcommand and waits for its listening
// banner, which it prints once recovery is complete and it serves.
func startPatty(bin string, args ...string) (*pattyProc, time.Duration, error) {
	p := &pattyProc{cmd: exec.Command(bin, args...)}
	p.cmd.Stderr = &p.stderr
	d, line, exited, err := startReady(p.cmd, "listening on ")
	if err != nil {
		return nil, 0, fmt.Errorf("%w\n%s", err, p.stderr.String())
	}
	_, url, _ := strings.Cut(line, "listening on ")
	p.url, p.exited = strings.TrimSpace(url), exited
	return p, d, nil
}

// stop asks the process to drain (SIGTERM) and waits for it; a process
// that does not exit within ten seconds is killed.
func (p *pattyProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		err = <-p.exited
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n%s", p.cmd.Args[1], err, p.stderr.String())
	}
}

// startWorkers starts the fleet's worker processes and returns them
// with the spawn-to-ready time of the slowest.
func startWorkers(bin string) ([]*pattyProc, time.Duration, error) {
	type started struct {
		p   *pattyProc
		d   time.Duration
		err error
	}
	ch := make(chan started, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		go func() {
			p, d, err := startPatty(bin, "worker", "-workers", "1")
			ch <- started{p, d, err}
		}()
	}
	var ws []*pattyProc
	var slowest time.Duration
	var firstErr error
	for i := 0; i < fleetWorkers; i++ {
		s := <-ch
		if s.err != nil {
			firstErr = s.err
			continue
		}
		ws = append(ws, s.p)
		slowest = max(slowest, s.d)
	}
	if firstErr != nil {
		stopAll(ws)
		return nil, 0, firstErr
	}
	return ws, slowest, nil
}

func stopAll(ps []*pattyProc) {
	for _, p := range ps {
		p.stop()
	}
}

// runFleet is the tune-fleet workload: a closed loop, one client, each
// op one `patty tune -algo linear -budget 150 -eval-delay 10 -cores C
// -workers u1,u2 -checkpoint <fresh>` process against two `patty
// worker -workers 1` processes started during set-up. The traced run
// drives the coordinator inside this process instead, so the wire,
// audits, replay and journal can be timed from the outside.
func runFleet(e *env) error {
	golden, err := loadTuneGolden()
	if err != nil {
		return err
	}
	// startPair stops the running worker pair, if any, and starts a new
	// one; the last pair started before the load serves it.
	var workers []*pattyProc
	startPair := func() (time.Duration, error) {
		stopAll(workers)
		var d time.Duration
		var err error
		workers, d, err = startWorkers(e.cfg.patty)
		return d, err
	}
	defer func() { stopAll(workers) }()
	if err := e.measureSetUp(setupRuns-setupRuns/2, startPair); err != nil {
		return err
	}
	var urls []string
	for _, w := range workers {
		urls = append(urls, w.url)
	}

	var order []int
	e.loop(len(tuneCores), func(i int) {
		if i%len(tuneCores) == 0 {
			order = order[:0]
			for _, k := range passOrder(e.cfg.seed, i/len(tuneCores), len(tuneCores)) {
				order = append(order, tuneCores[k])
			}
		}
		cores := order[i%len(tuneCores)]
		ckpt := filepath.Join(e.cfg.workdir, fmt.Sprintf("tune-%d.ckpt", i))
		var err error
		if e.tr == nil {
			err = fleetOpCLI(e, cores, urls, ckpt, golden)
		} else {
			err = fleetOpTraced(e, i, cores, urls, ckpt, golden)
		}
		if err != nil {
			e.res.fail("op %d: %v", i, err)
		}
	})
	for _, w := range workers {
		rss, err := peakRSSMB(w.cmd.Process.Pid)
		if err != nil {
			return err
		}
		e.res.PeakRSSMB = max(e.res.PeakRSSMB, rss)
	}
	return e.measureSetUp(setupRuns/2, startPair)
}

// fleetOpCLI runs one tune op as the user does: a patty tune process.
func fleetOpCLI(e *env, cores int, urls []string, ckpt string, golden tuneGolden) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.cfg.patty, "tune", "-algo", "linear",
		"-budget", strconv.Itoa(tuneBudget), "-eval-delay", strconv.Itoa(int(tuneEvalDelay.Milliseconds())),
		"-cores", strconv.Itoa(cores), "-workers", strings.Join(urls, ","), "-checkpoint", ckpt)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	out, err := cmd.Output()
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("patty tune -cores %d: %w", cores, err)
	}
	// "algorithm linear: best map[k:v ...], cost N after M evaluations"
	first, _, _ := strings.Cut(string(out), "\n")
	_, rest, ok1 := strings.Cut(first, "best ")
	best, rest, ok2 := strings.Cut(rest, ", cost ")
	cost, _, ok3 := strings.Cut(rest, " after ")
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("patty tune -cores %d: unexpected output %q", cores, first)
	}
	want, ok := golden[cores]
	if !ok {
		return fmt.Errorf("no tune golden for cores=%d", cores)
	}
	if best != fmt.Sprint(want.best) || cost != strconv.FormatFloat(want.cost, 'f', 0, 64) {
		return fmt.Errorf("cores=%d: best %s cost %s, golden %v cost %.0f", cores, best, cost, want.best, want.cost)
	}
	e.opDone(d)
	return nil
}

// interval is one timed call.
type interval struct{ start, end time.Time }

// fleetProbe times the coordinator from outside: it is the HTTP
// transport of fleet.Options.Client (one round trip per shard, from
// send until the coordinator closes the response body) and wraps
// Options.LocalObjective (cross-check audits, then replay table misses).
// Each op gets its own connections, as a patty tune process does.
type fleetProbe struct {
	base   *http.Transport
	mu     sync.Mutex
	shards []interval
	evals  []int // configurations per shard
	local  []interval
}

func (f *fleetProbe) RoundTrip(r *http.Request) (*http.Response, error) {
	configs := 0
	if r.GetBody != nil {
		if body, err := r.GetBody(); err == nil {
			var req fleet.ShardRequest
			if json.NewDecoder(body).Decode(&req) == nil {
				configs = len(req.Configs)
			}
			body.Close()
		}
	}
	t0 := time.Now()
	resp, err := f.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &closeHook{ReadCloser: resp.Body, done: func() {
		f.mu.Lock()
		f.shards = append(f.shards, interval{t0, time.Now()})
		f.evals = append(f.evals, configs)
		f.mu.Unlock()
	}}
	return resp, nil
}

func (f *fleetProbe) objective(obj tuning.Objective) tuning.Objective {
	return func(a map[string]int) float64 {
		t0 := time.Now()
		c := obj(a)
		f.mu.Lock()
		f.local = append(f.local, interval{t0, time.Now()})
		f.mu.Unlock()
		return c
	}
}

// closeHook runs done once, when the body is closed.
type closeHook struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.done)
	return err
}

// fleetOpTraced runs one tune op with the coordinator in this process,
// configured as runFleetTune configures it, against the same workers.
func fleetOpTraced(e *env, op, cores int, urls []string, ckpt string, golden tuneGolden) error {
	tr := e.tr
	dims, start, obj := tuneModel(cores)
	spec, err := json.Marshal(map[string]int{"cores": cores, "eval_delay_ms": int(tuneEvalDelay.Milliseconds())})
	if err != nil {
		return err
	}
	probe := &fleetProbe{base: http.DefaultTransport.(*http.Transport).Clone()}
	defer probe.base.CloseIdleConnections()
	opts := fleet.Options{
		Workers:          urls,
		Spec:             spec,
		LocalObjective:   probe.objective(delayed(obj)),
		Checkpoint:       ckpt,
		Collector:        obs.New(),
		BreakerThreshold: 3,
		Observed:         &tuning.Observed{Collector: obs.New()},
		Client:           &http.Client{Transport: probe},
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	res, st, err := fleet.Tune(ctx, tuning.LinearSearch{}, dims, start, tuneBudget, opts)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if st.Divergent > 0 {
		return fmt.Errorf("cores=%d: cross-check found %d divergent evaluations", cores, st.Divergent)
	}
	if err := golden.check(cores, res.Best, res.BestCost); err != nil {
		return err
	}
	e.opDone(t1.Sub(t0))

	root := tr.add("fleet.tune", 0, op, t0, t1)
	var lastShard time.Time
	for k, s := range probe.shards {
		tr.add("fleet.shard_rtt", root, op, s.start, s.end)
		rtt := ms(s.end.Sub(s.start))
		e.res.layer("fleet.shard_rtt_ms", rtt)
		e.res.layer("fleet.wire_overhead_ms", rtt-float64(probe.evals[k])*ms(tuneEvalDelay))
		if s.end.After(lastShard) {
			lastShard = s.end
		}
	}
	// Replay table misses are the last LocalEvals objective calls;
	// every call before them is a cross-check audit.
	audits := probe.local[:len(probe.local)-st.LocalEvals]
	auditMs := 0.0
	replayFrom := lastShard
	for _, a := range audits {
		tr.add("fleet.audit", root, op, a.start, a.end)
		auditMs += ms(a.end.Sub(a.start))
		if a.end.After(replayFrom) {
			replayFrom = a.end
		}
	}
	tr.add("fleet.replay", root, op, replayFrom, t1)
	e.res.layer("fleet.shards", float64(st.Shards))
	e.res.layer("fleet.merged_evals", float64(st.Merged))
	e.res.layer("fleet.useful_eval_ratio", float64(res.Evaluations)/float64(st.Merged))
	e.res.layer("fleet.audit_evals", float64(len(audits)))
	e.res.layer("fleet.audit_ms", auditMs)
	e.res.layer("fleet.replay_ms", ms(t1.Sub(replayFrom)))
	e.res.layer("fleet.local_evals", float64(st.LocalEvals))

	// The same search run locally (runTune's wrapper stack without the
	// journal): the time the fleet has to beat.
	o := &tuning.Observed{Collector: obs.New()}
	br := jobs.NewBreaker(3, 30*time.Second)
	var local tuning.Result
	e.res.layer("tuning.local_search_ms", tr.do("tuning.local_search", 0, op, func() {
		local = tuning.LinearSearch{}.TuneCtx(context.Background(), dims, start,
			jobs.GuardObjective(br, o, o.Wrap(delayed(obj))), tuneBudget)
	}))
	if err := golden.check(cores, local.Best, local.BestCost); err != nil {
		return fmt.Errorf("local search: %w", err)
	}

	// Flush of the journal the op left behind, at its record count.
	ck, _, err := tuning.NewCheckpointer(ckpt, tuning.SearchMeta{Algo: "linear", Budget: tuneBudget, Dims: dims, Start: start})
	if err != nil {
		return err
	}
	var ferr error
	e.res.layer("tuning.journal_flush_ms", tr.do("tuning.journal_flush", 0, op, func() { ferr = ck.Flush() }))
	return ferr
}
