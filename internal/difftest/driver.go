package difftest

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"math/rand"
	"strings"
	"time"

	"patty/internal/core"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/ptest"
	"patty/internal/sched"
	"patty/internal/seed"
	"patty/internal/source"
)

// Mutation deliberately breaks one detector rule, so tests can prove
// the harness catches a faulty detection end-to-end (classic mutation
// testing of the validation layer itself).
type Mutation int

const (
	// MutNone runs the detector unmodified.
	MutNone Mutation = iota
	// MutIgnoreCarried deletes every loop-carried dependence from the
	// static model before detection — the PLDD rule goes blind and
	// carried loops get classified as independent. Forces a
	// static-only model (the dynamic refinement would re-observe the
	// dependences this mutation is supposed to hide).
	MutIgnoreCarried
)

// Options tunes one differential check.
type Options struct {
	// Configs is the number of random tuning configurations sampled
	// per candidate, on top of the default and sequential configs
	// that always run (default 3).
	Configs int
	// Static skips dynamic model enrichment.
	Static bool
	// Sched additionally explores the candidate's generated parallel
	// unit test under the CHESS-style scheduler.
	Sched bool
	// SchedMax bounds the exploration (default 200 schedules).
	SchedMax int
	// Mut optionally breaks a detector rule (see Mutation).
	Mut Mutation
	// Timeout bounds each parallel execution; expiry is reported as a
	// deadlock divergence (default 10s).
	Timeout time.Duration
	// Faults additionally runs two fault-injection legs per candidate:
	// transient faults under a Retry policy (must heal to an exact
	// match) and fatal faults under SkipItem (must drop exactly the
	// injected items). See checkFaultLegs.
	Faults bool
	// FaultPanicRate, FaultTransientRate and FaultDelayRate set the
	// per-item injection probabilities of the fault legs (defaults
	// 0.06 / 0.08 / 0.04 when Faults is on).
	FaultPanicRate     float64
	FaultTransientRate float64
	FaultDelayRate     float64
}

func (o Options) withDefaults() Options {
	if o.Configs <= 0 {
		o.Configs = 3
	}
	if o.SchedMax <= 0 {
		o.SchedMax = 200
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Mut != MutNone {
		o.Static = true
	}
	if o.Faults {
		if o.FaultPanicRate <= 0 {
			o.FaultPanicRate = 0.06
		}
		if o.FaultTransientRate <= 0 {
			o.FaultTransientRate = 0.08
		}
		if o.FaultDelayRate <= 0 {
			o.FaultDelayRate = 0.04
		}
	}
	return o
}

// Divergence is one detected disagreement between the sequential
// oracle and the parallelization pipeline.
type Divergence struct {
	// Kind classifies the failure:
	//   harness      - generator/oracle self-check failed (a difftest bug)
	//   engine       - bytecode VM disagrees with the tree-walking oracle
	//   phase        - a process phase errored out
	//   verdict      - detector classification contradicts ground truth
	//   transform    - no code generated for the target candidate
	//   exec-reorder - an "independent" loop fails under permuted order
	//   exec         - parallel execution produced different outputs
	//   deadlock     - parallel execution timed out
	//   panic        - parallel execution panicked
	//   fault        - a fault-injection leg broke its recovery oracle
	//   sched        - schedule exploration found races/deadlocks
	Kind   string
	Seed   int64
	Config Config
	Detail string
	Source string
}

func (d *Divergence) String() string {
	s := fmt.Sprintf("[%s] seed=%d", d.Kind, d.Seed)
	if d.Config.Name != "" {
		s += " config=" + d.Config.String()
	}
	return s + ": " + d.Detail
}

// Result is the outcome of checking one generated program.
type Result struct {
	Seed int64
	// Kind is the detected verdict for the target loop: "pipeline",
	// "data-parallel", "master-worker" or "rejected".
	Kind string
	Div  *Divergence
}

var errTimeout = errors.New("parallel execution timed out (possible deadlock)")

// runWithTimeout guards one parallel execution; a hung run leaks its
// goroutines (acceptable for a fuzzing tool) and reports a deadlock.
func runWithTimeout(p *Prog, cand *pattern.Candidate, fn *source.Function, loop ast.Stmt, patName string, cfg Config, d time.Duration) (*state, error) {
	type outcome struct {
		st  *state
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		st, err := runPattern(p, cand, fn, loop, patName, cfg)
		ch <- outcome{st, err}
	}()
	// A stopped timer is freed at once; an unstopped one (time.After)
	// stays live until it fires, so a fast sweep would hold one per
	// execution of the last Timeout.
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.st, o.err
	case <-timer.C:
		return nil, errTimeout
	}
}

// mutateModel applies the configured detector mutation to the model.
func mutateModel(m *model.Model, mut Mutation) {
	if mut != MutIgnoreCarried {
		return
	}
	for _, lm := range m.AllLoops() {
		li := lm.Static
		kept := li.Deps[:0]
		for _, d := range li.Deps {
			if !d.Carried {
				kept = append(kept, d)
			}
		}
		li.Deps = kept
	}
}

// compareOracle checks the interpreter's return values (accumulators
// first, then output slices) against the native reference state.
func compareOracle(p *Prog, vals []interp.Value, ref *state) string {
	if len(vals) != p.NAcc+p.NOut {
		return fmt.Sprintf("oracle returned %d values, want %d", len(vals), p.NAcc+p.NOut)
	}
	for a := 0; a < p.NAcc; a++ {
		iv, ok := vals[a].(int64)
		if !ok {
			return fmt.Sprintf("acc%d: oracle returned %T, want int64", a, vals[a])
		}
		if iv != ref.accs[a] {
			return fmt.Sprintf("acc%d: oracle %d, native %d", a, iv, ref.accs[a])
		}
	}
	for o := 0; o < p.NOut; o++ {
		sl, ok := vals[p.NAcc+o].(*interp.Slice)
		if !ok {
			return fmt.Sprintf("out%d: oracle returned %T, want slice", o, vals[p.NAcc+o])
		}
		if len(sl.Elems) != len(ref.outs[o]) {
			return fmt.Sprintf("out%d: oracle len %d, native len %d", o, len(sl.Elems), len(ref.outs[o]))
		}
		for i, ev := range sl.Elems {
			iv, ok := ev.(int64)
			if !ok {
				return fmt.Sprintf("out%d[%d]: oracle element %T, want int64", o, i, ev)
			}
			if iv != ref.outs[o][i] {
				return fmt.Sprintf("out%d[%d]: oracle %d, native %d", o, i, iv, ref.outs[o][i])
			}
		}
	}
	return ""
}

// unsafeVerdict flags classifications that would make parallel
// execution unsound, so the driver reports them BEFORE spawning any
// goroutines: a carried loop run as an independent pattern is a real
// data race (it would also trip Go's race detector inside the test
// binary), and a loop with a break has no parallel semantics at all.
// carried is the ground truth — static presence in static mode, actual
// liveness under the profiling workload in dynamic mode.
func unsafeVerdict(p *Prog, carried bool, cand *pattern.Candidate) string {
	switch {
	case p.HasBreak():
		return fmt.Sprintf("loop with break classified as %s; PLCD must reject it", cand.Kind)
	case carried && cand.Kind != pattern.PipelineKind:
		return fmt.Sprintf("loop with carried dependences classified as %s, want pipeline", cand.Kind)
	}
	return ""
}

// verdictMismatch compares the detector's classification against the
// generator's ground-truth dependence structure. Runs after execution:
// the remaining mismatches (wrong pattern for an independent loop) are
// safe to execute, and execution evidence wins over classification
// nit-picking.
func verdictMismatch(p *Prog, carried bool, cand *pattern.Candidate) string {
	if p.HasBreak() || carried {
		return unsafeVerdict(p, carried, cand)
	}
	want := pattern.DataParallelKind
	if p.Irregular() {
		want = pattern.MasterWorkerKind
	}
	if cand.Kind != want {
		return fmt.Sprintf("independent loop classified as %s, want %s", cand.Kind, want)
	}
	return ""
}

// Check runs the full differential pipeline on one generated program:
// interpreter oracle, native reference, model → detect → TADL →
// transform, deterministic independence check, parrt execution across
// sampled configs, and (optionally) schedule exploration. The first
// divergence stops the check.
func Check(p *Prog, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{Seed: p.Seed}
	src := p.Render()
	sources := map[string]string{"fz.go": src}
	div := func(kind string, format string, args ...any) *Result {
		res.Div = &Divergence{Kind: kind, Seed: p.Seed, Source: src, Detail: fmt.Sprintf(format, args...)}
		return res
	}

	// 1. Sequential interpreter oracle: the tree-walker's run of the
	// engine leg, which the bytecode VM must reproduce bit-for-bit —
	// values, virtual time, profile and every loop's load/store trace
	// (engineleg.go).
	oracleProg, err := source.ParseSources(sources)
	if err != nil {
		return div("harness", "generated source does not parse: %v", err)
	}
	vals, msg, err := engineLeg(oracleProg, "Kernel", kernelArgs(int64(p.N)))
	if msg != "" {
		return div("engine", "vm disagrees with tree-walker: %s", msg)
	}
	if err != nil {
		return div("harness", "oracle run failed: %v", err)
	}

	// 2. The native reference executor must agree with the
	// interpreter bit-for-bit; it is the comparison basis for the
	// parallel legs (the interpreter itself is not thread-safe).
	ref := p.runSeq(nil)
	if msg := compareOracle(p, vals, ref); msg != "" {
		return div("harness", "native reference disagrees with oracle: %s", msg)
	}

	// 3. Full process model: phases 1-4, with the optional detector
	// mutation injected between model creation and pattern analysis.
	var logBuf strings.Builder
	procOpt := core.Options{Log: func(s string) { logBuf.WriteString(s); logBuf.WriteByte('\n') }}
	if !opt.Static {
		procOpt.Workload = &model.Workload{
			Entry: "Kernel",
			Args:  kernelArgs(int64(p.N)),
		}
	}
	proc := core.NewProcess(sources, procOpt)
	if err := proc.CreateModel(); err != nil {
		return div("phase", "model creation failed: %v", err)
	}
	if opt.Mut != MutNone {
		mutateModel(proc.Artifacts().Model, opt.Mut)
	}
	if err := proc.AnalyzePatterns(); err != nil {
		return div("phase", "pattern analysis failed: %v", err)
	}
	if err := proc.DeriveArchitecture(); err != nil {
		return div("phase", "architecture derivation failed: %v", err)
	}
	if err := proc.TransformCode(); err != nil {
		return div("phase", "code transform failed: %v", err)
	}
	arts := proc.Artifacts()

	// The target loop is the last loop of Kernel (prologue fills come
	// first in source order).
	fn := arts.Model.Prog.Func("Kernel")
	loops := fn.Loops()
	if len(loops) == 0 {
		return div("harness", "no loops found in Kernel")
	}
	loop := loops[len(loops)-1]
	loopID := fn.StmtID(loop)

	var cand *pattern.Candidate
	for i := range arts.Report.Candidates {
		if c := &arts.Report.Candidates[i]; c.Fn == "Kernel" && c.LoopID == loopID {
			cand = c
			break
		}
	}
	if cand == nil {
		res.Kind = "rejected"
		if !p.HasCarried() && !p.HasBreak() {
			reason := "no rejection recorded"
			for _, rj := range arts.Report.Rejected {
				if rj.Fn == "Kernel" && rj.LoopID == loopID {
					reason = rj.Reason
					break
				}
			}
			return div("verdict", "independent loop was rejected: %s", reason)
		}
		return res // legitimately rejected; nothing to execute
	}
	res.Kind = cand.Kind.String()

	// 4. Safety gate: a verdict that would make parallel execution
	// race (carried loop classified independent) or meaningless (break
	// accepted) is reported without running it.
	carried := p.HasCarried()
	if !opt.Static {
		carried = p.liveCarried()
	}
	if msg := unsafeVerdict(p, carried, cand); msg != "" {
		return div("verdict", "%s", msg)
	}

	// 5. Deterministic independence check, before any parallel
	// execution: a loop classified as independent must tolerate any
	// iteration order. This catches a broken dependence rule without
	// goroutines (and therefore without introducing a data race into
	// the test binary under -race).
	if cand.Kind == pattern.DataParallelKind || cand.Kind == pattern.MasterWorkerKind {
		order := make([]int, p.N)
		for i := range order {
			order[i] = p.N - 1 - i
		}
		if got := p.runSeq(order); !got.equal(ref) {
			return div("exec-reorder",
				"reverse-order execution diverges — the loop is not independent: %s", got.diff(ref))
		}
	}

	// 6. The transformer must have produced code for the candidate.
	patName := fmt.Sprintf("Kernel.L%d", loopID)
	transformed := false
	for _, out := range arts.Outputs {
		if out.PatternName == patName {
			transformed = true
			break
		}
	}
	if !transformed {
		return div("transform", "no generated code for %s; process log:\n%s", patName, logBuf.String())
	}

	// 7. Execute on the real runtime across sampled configurations.
	r := rand.New(rand.NewSource(seed.Mix(p.Seed, 0x9E37)))
	for _, cfg := range sampleConfigs(r, cand, patName, p.OrderSensitive(), opt.Configs) {
		got, err := runWithTimeout(p, cand, fn, loop, patName, cfg, opt.Timeout)
		if err != nil {
			kind := "panic"
			if errors.Is(err, errTimeout) {
				kind = "deadlock"
			}
			res.Div = &Divergence{Kind: kind, Seed: p.Seed, Config: cfg, Source: src, Detail: err.Error()}
			return res
		}
		if !got.equal(ref) {
			res.Div = &Divergence{Kind: "exec", Seed: p.Seed, Config: cfg, Source: src, Detail: got.diff(ref)}
			return res
		}
	}

	// 7b. Fault-injection legs: the runtime must recover from injected
	// transient and fatal faults exactly as its policies promise.
	if opt.Faults {
		if d := checkFaultLegs(p, cand, fn, loop, patName, ref, src, opt); d != nil {
			res.Div = d
			return res
		}
	}

	// 8. Small-instance schedule exploration of the generated
	// parallel unit test (the paper's CHESS validation, scaled down).
	// Skipped when static and dynamic ground truth disagree (a carried
	// statement exists but never pairs under this workload): the unit
	// test replays the body's static access pattern, so it would flag
	// the conservative static race the dynamic verdict deliberately —
	// and soundly, for this workload — ignored.
	if opt.Sched && p.HasCarried() == carried {
		if ut, err := ptest.Generate(arts.Model, *cand, ptest.Options{Threads: 2, Iters: 3}); err == nil {
			sr := ut.Run(sched.Options{
				MaxSchedules: opt.SchedMax, PreemptionBound: 2,
				StopAtFirstBug: true, Seed: p.Seed,
			})
			if sr.Buggy() {
				return div("sched", "schedule exploration: %d race(s), %d deadlock(s), %d failure(s)",
					len(sr.Races), len(sr.Deadlocks), len(sr.Failures))
			}
		}
	}

	// 9. Verdict check last: classification bugs whose consequences
	// execution missed still surface, but execution evidence wins.
	if msg := verdictMismatch(p, carried, cand); msg != "" {
		return div("verdict", "%s", msg)
	}
	return res
}

// Summary aggregates a fuzzing run.
type Summary struct {
	Programs    int
	Kinds       map[string]int
	Divergences []*Result
}

// Run generates and checks n programs with per-program seeds derived
// from baseSeed, reporting each divergence through progress (which
// may be nil). It is RunCtx without cancellation (batch.go).
func Run(baseSeed int64, n int, opt Options, progress func(string)) *Summary {
	sum, _ := RunCtx(context.Background(), baseSeed, n, opt, progress)
	return sum
}
