package difftest

import (
	"fmt"
	"go/ast"
	"sort"
	"time"

	"patty/internal/faultinject"
	"patty/internal/parrt"
	"patty/internal/pattern"
	"patty/internal/seed"
	"patty/internal/source"
)

// Fault-leg seed salts: each leg derives its injection plan from the
// program seed so a reproduced seed replays the exact same faults.
const (
	faultRetrySalt = 0xFA01
	faultSkipSalt  = 0xFA02
)

// Per-item injection probabilities of the fault legs: transient faults
// and delays in the retry leg, fatal panics in the skip leg.
const (
	faultTransientRate = 0.08
	faultDelayRate     = 0.04
	faultPanicRate     = 0.06
)

// faultPrefix returns the tuning-parameter prefix under which the
// runtime reads the fault policy for the given pattern kind.
func faultPrefix(kind pattern.Kind, patName string) string {
	switch kind {
	case pattern.PipelineKind:
		return "pipeline." + patName + "."
	case pattern.MasterWorkerKind:
		return "masterworker." + patName + "."
	default:
		return "parallelfor." + patName + "."
	}
}

// checkFaultLegs executes the candidate twice under deterministic fault
// injection and checks each run against an exact oracle:
//
//   - fault-retry: transient faults that heal within the configured
//     retry budget must leave NO trace — zero item errors and a state
//     bit-identical to the sequential reference.
//   - fault-skip: fatal faults under SkipItem must drop EXACTLY the
//     injected items (the injector's fatal set is the oracle) and the
//     surviving state must equal a sequential run that skips those
//     same iterations. Faults fire at the pattern entry before any
//     program statement, so a dropped item has no partial effects.
//
// Returns nil when both legs hold, or the first divergence.
func checkFaultLegs(p *Prog, cand *pattern.Candidate, fn *source.Function, loop ast.Stmt, patName string, ref *state, src string, opt Options) *Divergence {
	prefix := faultPrefix(cand.Kind, patName)

	type outcome struct {
		st    *state
		ierrs []*parrt.ItemError
		err   error
	}
	run := func(cfg Config, inj *faultinject.Injector) (outcome, bool) {
		ch := make(chan outcome, 1)
		go func() {
			st, ierrs, err := runPatternInj(p, cand, fn, loop, patName, cfg, inj)
			ch <- outcome{st, ierrs, err}
		}()
		timer := time.NewTimer(opt.Timeout) // stopped at once, see runWithTimeout
		defer timer.Stop()
		select {
		case o := <-ch:
			return o, true
		case <-timer.C:
			return outcome{}, false
		}
	}
	div := func(cfg Config, format string, args ...any) *Divergence {
		return &Divergence{Kind: "fault", Seed: p.Seed, Config: cfg, Source: src,
			Detail: fmt.Sprintf(format, args...)}
	}

	// Leg 1: transient faults + Retry. TransientTries(2) < Retries(3),
	// so every injected fault heals within the budget and the run must
	// be indistinguishable from a clean one.
	retryCfg := Config{Name: "fault-retry", Assign: map[string]int{
		prefix + "faultpolicy":    int(parrt.RetryItem),
		prefix + "retries":        3,
		prefix + "retrybackoffus": 1,
	}}
	injR := faultinject.New(faultinject.Plan{
		Seed:           seed.Mix(p.Seed, faultRetrySalt),
		TransientRate:  faultTransientRate,
		TransientTries: 2,
		DelayRate:      faultDelayRate,
		Delay:          200 * time.Microsecond,
	})
	o, ok := run(retryCfg, injR)
	switch {
	case !ok:
		return div(retryCfg, "timed out under transient fault injection (possible deadlock)")
	case o.err != nil:
		return div(retryCfg, "retry policy did not absorb transient faults: %v", o.err)
	case len(o.ierrs) > 0:
		return div(retryCfg, "retry run reported %d item error(s), want 0; first: %v", len(o.ierrs), o.ierrs[0])
	case !o.st.equal(ref):
		return div(retryCfg, "retry run diverges from reference after %d transient fault(s): %s",
			injR.Stats().Transient, o.st.diff(ref))
	}

	// Leg 2: fatal faults + SkipItem. The injector knows exactly which
	// items it kills; the run must report those and only those, and the
	// surviving state must equal a sequential run skipping them.
	skipCfg := Config{Name: "fault-skip", Assign: map[string]int{
		prefix + "faultpolicy": int(parrt.SkipItem),
	}}
	injS := faultinject.New(faultinject.Plan{
		Seed:      seed.Mix(p.Seed, faultSkipSalt),
		PanicRate: faultPanicRate,
	})
	fatal := injS.FatalItems(faultSite, p.N)
	o, ok = run(skipCfg, injS)
	if !ok {
		return div(skipCfg, "timed out under fatal fault injection (possible deadlock)")
	}
	if o.err != nil {
		return div(skipCfg, "skip policy did not isolate fatal faults: %v", o.err)
	}
	got := make([]int, 0, len(o.ierrs))
	for _, ie := range o.ierrs {
		got = append(got, ie.Item)
	}
	sort.Ints(got)
	if !equalInts(got, fatal) {
		return div(skipCfg, "skipped items %v, injector killed %v", got, fatal)
	}
	skip := make(map[int]bool, len(fatal))
	for _, i := range fatal {
		skip[i] = true
	}
	if want := p.runSeqSkipping(skip); !o.st.equal(want) {
		return div(skipCfg, "skip run diverges from skipping reference (killed %v): %s",
			fatal, o.st.diff(want))
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
