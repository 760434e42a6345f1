package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"time"

	"patty/internal/evalcache"
	"patty/internal/fleet"
	"patty/internal/jobs"
	"patty/internal/netchaos"
	"patty/internal/obs"
	"patty/internal/perfmodel"
	"patty/internal/report"
	"patty/internal/tuning"
)

// tuneSpec is one auto-tuning request — the CLI flags of `patty tune`
// and the JSON body of a serve tune job share it. Checkpoint, CacheDir
// and CacheMaxBytes name files of the machine the search runs on, so
// they are CLI flags only and never JSON.
type tuneSpec struct {
	Algo   string `json:"algo"`
	Budget int    `json:"budget"`
	Cores  int    `json:"cores"`
	// Checkpoint, when set, journals every evaluation to this file and
	// resumes from it: a killed search restarted with the same spec
	// fast-forwards through the completed prefix and converges to the
	// same best as an uninterrupted run.
	Checkpoint string `json:"-"`
	// EvalDelayMs stretches each fresh evaluation (kill-and-restart
	// harnesses use it to land a SIGKILL mid-search).
	EvalDelayMs int `json:"eval_delay_ms,omitempty"`
	// FaultRate (percent) makes that fraction of configurations fault
	// persistently, chosen by a deterministic hash with FaultSeed, so
	// the circuit breaker has something to quarantine and a restarted
	// run condemns the same configurations.
	FaultRate int   `json:"fault_rate,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// BreakerThreshold is the consecutive-fault count that quarantines
	// a configuration (default 3).
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// Workers, when non-empty, shards the search across these `patty
	// worker` base URLs instead of evaluating in-process; the merged
	// result is identical to the local run by construction (see
	// internal/fleet).
	Workers []string `json:"workers,omitempty"`
	// NetChaos, when set, routes every shard dispatch through a
	// deterministic wire-fault injector built from this plan
	// (hostile-network drills; see internal/netchaos).
	NetChaos *netchaos.PlanSpec `json:"net_chaos,omitempty"`
	// CrossCheck is the byzantine audit width per completed shard
	// (0: fleet default of 2; -1 disables auditing).
	CrossCheck int `json:"cross_check,omitempty"`
	// LeaseTTLMs bounds one shard dispatch (0: fleet default of 30s).
	LeaseTTLMs int `json:"lease_ttl_ms,omitempty"`
	// CacheDir, when set, opens the persistent content-addressed
	// evaluation store there (internal/evalcache): configurations this
	// workload identity has ever measured — in any run, by any tenant,
	// before any restart — answer from the store instead of being
	// re-evaluated. CacheMaxBytes bounds the store on disk (0: the
	// evalcache default of 64 MiB).
	CacheDir      string `json:"-"`
	CacheMaxBytes int64  `json:"-"`

	// cache and cacheTenant are the serve path's injection points: the
	// server's long-lived shared store and the submitting tenant (hit
	// attribution only — never part of the address). The CLI path opens
	// its own store from CacheDir instead.
	cache       *evalcache.Store
	cacheTenant string
}

func (s tuneSpec) withDefaults() tuneSpec {
	if s.Algo == "" {
		s.Algo = "linear"
	}
	if s.Budget <= 0 {
		s.Budget = 150
	}
	if s.Cores <= 0 {
		s.Cores = 8
	}
	if s.BreakerThreshold <= 0 {
		s.BreakerThreshold = 3
	}
	return s
}

// tuneOutcome is the JSON-able result of one tuning run.
type tuneOutcome struct {
	Algo        string              `json:"algo"`
	Best        map[string]int      `json:"best"`
	Cost        float64             `json:"cost"`
	Evaluations int                 `json:"evaluations"`
	Interrupted bool                `json:"interrupted,omitempty"`
	Explored    int                 `json:"explored,omitempty"`
	Resumed     int                 `json:"resumed,omitempty"`
	Quarantined []string            `json:"quarantined,omitempty"`
	Trace       []tuning.TracePoint `json:"trace,omitempty"`
	// Fleet carries the distributed-run statistics when the search was
	// sharded across workers.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// tuneWorkload is the performance-model workload every tune run
// optimizes (the paper's five-stage oil-painting pipeline).
func tuneWorkload(cores int) (dims []tuning.Dim, start map[string]int, obj tuning.Objective) {
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

// tunerFor maps an algorithm name to its tuner.
func tunerFor(algo string) (tuning.Tuner, error) {
	switch algo {
	case "linear":
		return tuning.LinearSearch{}, nil
	case "nelder-mead":
		return tuning.NelderMead{}, nil
	case "tabu":
		return tuning.TabuSearch{}, nil
	case "random":
		return tuning.RandomSearch{Seed: 1}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

// evalSpec is the slice of a tuneSpec a worker needs to rebuild the
// objective. It travels as the opaque fleet shard spec: coordinator and
// `patty worker` agree on it, the fleet package never looks inside.
type evalSpec struct {
	Cores       int   `json:"cores"`
	EvalDelayMs int   `json:"eval_delay_ms,omitempty"`
	FaultRate   int   `json:"fault_rate,omitempty"`
	FaultSeed   int64 `json:"fault_seed,omitempty"`
}

func (s tuneSpec) evalSpec() evalSpec {
	return evalSpec{Cores: s.Cores, EvalDelayMs: s.EvalDelayMs,
		FaultRate: s.FaultRate, FaultSeed: s.FaultSeed}
}

// cacheIdentity derives the store address of this spec's workload. The
// program slot hashes everything that changes a configuration's cost
// (cores, fault shape); the seed slot carries FaultSeed. EvalDelayMs
// is excluded — it stretches wall-clock, never the modelled cost — so
// a kill-harness run warms the cache for undelayed ones.
func (s tuneSpec) cacheIdentity() (string, int64) {
	es := s.evalSpec()
	es.EvalDelayMs = 0
	es.FaultSeed = 0 // carried by the key's seed slot instead
	h, err := evalcache.SpecHash("tune-workload/v1", es)
	if err != nil { // unreachable: evalSpec is plain marshalable data
		return "", 0
	}
	return h, s.FaultSeed
}

// openCache addresses the spec's workload (cacheIdentity) in its
// evaluation store: the serve-injected shared one (no-op closer — the
// server owns its lifetime), a private one opened from CacheDir, or
// none (the memo is off).
func (s tuneSpec) openCache() (tuning.Memo, func(), error) {
	cs, closer := s.cache, func() {}
	if cs == nil {
		var err error
		if cs, closer, err = openEvalStore("tune", s.CacheDir, s.CacheMaxBytes); err != nil {
			return tuning.Memo{}, nil, err
		}
	}
	if cs == nil {
		return tuning.Memo{}, closer, nil
	}
	prog, seed := s.cacheIdentity()
	return tuning.Memo{Store: cs, Program: prog, Seed: seed, Tenant: s.cacheTenant}, closer, nil
}

// workload builds the tuning workload with the fault and delay shims
// applied — the one objective stack local runs, fleet workers, and the
// coordinator's audits all share, which is what makes a
// worker-measured cost interchangeable with a local one.
func (e evalSpec) workload(ctx context.Context) (dims []tuning.Dim, start map[string]int, obj tuning.Objective) {
	cores := e.Cores
	if cores <= 0 {
		cores = 8
	}
	dims, start, obj = tuneWorkload(cores)
	if e.FaultRate > 0 {
		inner := obj
		rate, fseed := e.FaultRate, e.FaultSeed
		obj = func(a map[string]int) float64 {
			if faultsConfig(a, rate, fseed) {
				return math.Inf(1)
			}
			return inner(a)
		}
	}
	if e.EvalDelayMs > 0 {
		inner := obj
		delay := time.Duration(e.EvalDelayMs) * time.Millisecond
		obj = func(a map[string]int) float64 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
			return inner(a)
		}
	}
	return dims, start, obj
}

// parseChaosPlan turns the -net-chaos / -chaos flag value into a plan
// spec: empty means no injection, "gate" is the pinned drill plan
// (netchaos.GateSpec), anything else is PlanSpec JSON.
func parseChaosPlan(s string) (*netchaos.PlanSpec, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "":
		return nil, nil
	case "gate":
		ps := netchaos.GateSpec()
		return &ps, nil
	}
	var ps netchaos.PlanSpec
	if err := json.Unmarshal([]byte(s), &ps); err != nil {
		return nil, fmt.Errorf("bad chaos plan %q: %w", s, err)
	}
	if err := ps.Validate(); err != nil {
		return nil, fmt.Errorf("bad chaos plan %q: %w", s, err)
	}
	return &ps, nil
}

// faultsConfig decides deterministically whether a configuration
// faults under (rate, seed): the verdict is a pure function of the
// canonical assignment key, so a restarted process condemns the exact
// same configurations.
func faultsConfig(a map[string]int, rate int, fseed int64) bool {
	if rate <= 0 {
		return false
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%s", fseed, tuning.AssignKey(a))
	return int(h.Sum64()%100) < rate
}

// runTune executes one auto-tuning search, in this process or sharded
// across `patty worker` processes (spec.Workers), and reports the same
// outcome either way. Both paths keep one tuning.Checkpointer as the
// record of measured costs, journaled when spec.Checkpoint is set, so
// Explored and Resumed count the replayed prefix on both.
func runTune(ctx context.Context, spec tuneSpec) (*tuneOutcome, error) {
	spec = spec.withDefaults()
	tn, err := tunerFor(spec.Algo)
	if err != nil {
		return nil, err
	}
	dims, start, obj := spec.evalSpec().workload(ctx)
	memo, closeCache, err := spec.openCache()
	if err != nil {
		return nil, err
	}
	defer closeCache()

	out := &tuneOutcome{Algo: tn.Name()}
	var res tuning.Result
	var flushErr error
	if len(spec.Workers) > 0 {
		if res, out.Fleet, err = spec.fleetTune(ctx, tn, dims, start, obj, memo); err != nil {
			return nil, err
		}
		st := out.Fleet
		out.Explored, out.Resumed, out.Quarantined = st.Resumed+st.Merged+st.LocalEvals, st.Resumed, st.Quarantined
	} else {
		ck, _, err := tuning.NewCheckpointer(spec.Checkpoint, tuning.SearchMeta{Algo: tn.Name(), Budget: spec.Budget, Dims: dims, Start: start})
		if err != nil {
			return nil, err
		}
		defer ck.Close()
		// The wrapper order, innermost first: raw objective → fault/delay
		// shims → Observed.Wrap (measures; a panic or lost work costs
		// +Inf) → Memo.Wrap (answers from the store, stores fresh costs)
		// → GuardObjective (retries a +Inf or NaN cost, quarantines) →
		// Checkpointer.Wrap (records, journals, replays) → the tuner's
		// own evaluator. The Observed gets a private collector: its
		// per-evaluation Reset must not wipe the process-wide jobs.*
		// instruments.
		o := &tuning.Observed{Collector: obs.New()}
		br := jobs.NewBreaker(spec.BreakerThreshold, 30*time.Second).Instrument(metrics)
		br.Restore(ck.Quarantined())
		ck.Quarantine = br.Quarantined
		res = tn.TuneCtx(ctx, dims, start, ck.Wrap(jobs.GuardObjective(br, nil, memo.Wrap(o.Wrap(obj)))), spec.Budget)
		out.Explored, out.Resumed, out.Quarantined = ck.Explored(), ck.Resumed(), br.Quarantined()
		flushErr = ck.Flush()
	}
	out.Best, out.Cost, out.Evaluations = res.Best, res.BestCost, res.Evaluations
	out.Interrupted, out.Trace = res.Interrupted, res.Trace
	if flushErr != nil {
		return out, fmt.Errorf("checkpoint not durable: %w", flushErr)
	}
	return out, res.Err
}

// fleetTune runs the search on the fleet (internal/fleet): the tuner
// runs here against the merged record, and the coordinator leases each
// batch it asks for to the workers before it reads the costs.
func (s tuneSpec) fleetTune(ctx context.Context, tn tuning.Tuner, dims []tuning.Dim, start map[string]int, obj tuning.Objective, memo tuning.Memo) (tuning.Result, *fleet.Stats, error) {
	specJSON, err := json.Marshal(s.evalSpec())
	if err != nil {
		return tuning.Result{}, nil, err
	}
	var client *http.Client
	if s.NetChaos != nil {
		// The injector is instrumented into the process-wide collector, so
		// the fired fault classes (fleet.net.injected) land next to the
		// coordinator's observed ones (fleet.net.faults) in the same report.
		inj := netchaos.New(s.NetChaos.Plan()).Instrument(metrics)
		client = &http.Client{Transport: inj.Transport(http.DefaultTransport)}
		defer client.CloseIdleConnections()
	}
	return fleet.Tune(ctx, tn, dims, start, s.Budget, fleet.Options{
		Workers:          s.Workers,
		Spec:             specJSON,
		LocalObjective:   obj,
		Checkpoint:       s.Checkpoint,
		Collector:        metrics,
		BreakerThreshold: s.BreakerThreshold,
		Observed:         &tuning.Observed{Collector: obs.New()},
		Client:           client,
		CrossCheck:       s.CrossCheck,
		LeaseTTL:         time.Duration(s.LeaseTTLMs) * time.Millisecond,
		Cache:            memo,
	})
}

func cmdTune(ctx context.Context, args []string) error {
	fs := newFlagSet("tune")
	var spec tuneSpec
	fs.StringVar(&spec.Algo, "algo", "linear", "linear | nelder-mead | tabu | random")
	fs.IntVar(&spec.Budget, "budget", 150, "objective evaluations")
	fs.IntVar(&spec.Cores, "cores", 8, "modelled core count")
	fs.StringVar(&spec.Checkpoint, "checkpoint", "", "journal evaluations to this file and resume from it")
	fs.IntVar(&spec.EvalDelayMs, "eval-delay", 0, "milliseconds each fresh evaluation takes (kill-harness pacing)")
	fs.IntVar(&spec.FaultRate, "fault-rate", 0, "percent of configurations that fault persistently (breaker demo)")
	fs.Int64Var(&spec.FaultSeed, "fault-seed", 1, "seed selecting which configurations fault")
	workersFlag := fs.String("workers", "", "comma-separated worker URLs: shard the search across patty worker processes")
	netChaosFlag := fs.String("net-chaos", "", `wire-fault plan JSON (or "gate" for the pinned drill plan): inject deterministic faults into shard dispatch`)
	fs.IntVar(&spec.CrossCheck, "cross-check", 0, "byzantine audit width per shard (0: default 2, -1: disable)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shard lease TTL (0: fleet default)")
	fs.StringVar(&spec.CacheDir, "cache-dir", "", "persistent content-addressed evaluation store: already-measured configs answer from it across runs and restarts")
	fs.Int64Var(&spec.CacheMaxBytes, "cache-max-bytes", 0, "evaluation-store size bound in bytes (0: 64 MiB); oldest segments evicted first")
	fs.Parse(args)
	for _, u := range strings.Split(*workersFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			spec.Workers = append(spec.Workers, u)
		}
	}
	if ps, err := parseChaosPlan(*netChaosFlag); err != nil {
		return err
	} else if ps != nil {
		spec.NetChaos = ps
	}
	spec.LeaseTTLMs = int(leaseTTL.Milliseconds())

	out, err := runTune(ctx, spec)
	if err != nil && out == nil {
		return err
	}
	if out.Interrupted {
		fmt.Printf("interrupted: best so far %v, cost %.0f after %d evaluations\n",
			out.Best, out.Cost, out.Evaluations)
	} else {
		fmt.Printf("algorithm %s: best %v, cost %.0f after %d evaluations\n",
			out.Algo, out.Best, out.Cost, out.Evaluations)
	}
	if out.Fleet != nil && out.Fleet.CacheHits > 0 {
		fmt.Printf("fleet: %d config(s) answered by the evaluation store before dispatch\n", out.Fleet.CacheHits)
	}
	fmt.Print(report.Status(metrics.Snapshot()))
	if spec.Checkpoint != "" {
		fmt.Printf("checkpoint %s: %d configs explored (%d replayed from a previous run)\n",
			spec.Checkpoint, out.Explored, out.Resumed)
	}
	if len(out.Quarantined) > 0 {
		fmt.Printf("breaker quarantined %d configuration(s): %v\n", len(out.Quarantined), out.Quarantined)
	}
	if err != nil {
		return err
	}
	fmt.Println("improving steps (Fig. 4c runtime-tuning view):")
	for _, p := range out.Trace {
		fmt.Printf("  eval %3d: %.0f ticks\n", p.Eval, p.Cost)
	}
	return nil
}
