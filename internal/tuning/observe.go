package tuning

import (
	"math"

	"patty/internal/evalcache"
	"patty/internal/obs"
)

// Observed couples an Objective with the obs.Collector its workload
// writes into: every evaluation resets the collector, runs the
// workload, and digests a snapshot of the run to tell a real
// measurement from a faulted one.
type Observed struct {
	// Collector is the collector the instrumented patterns record
	// into. Must be non-nil; the workload's patterns are attached to
	// it via their Instrument methods.
	Collector *obs.Collector
}

// Wrap returns an Objective that resets the collector, delegates to
// obj (which must run the instrumented workload), then snapshots and
// analyzes the run.
//
// A panicking objective — or one whose run left lost work in the
// fault-layer counters (errors, timeouts, drained items) — costs +Inf,
// the one fault signal of the tuning stack: the search never converges
// on a configuration that only looks fast because it crashed early,
// and jobs.GuardObjective quarantines it. Healed retries alone do not
// penalize: the result was correct and the retry latency is already
// inside the measured cost.
func (o *Observed) Wrap(obj Objective) Objective {
	return func(a map[string]int) float64 {
		o.Collector.Reset()
		cost := runObjective(obj, a)
		for _, an := range obs.Analyze(o.Collector.Snapshot()) {
			if an.FaultErrors > 0 || an.FaultTimeouts > 0 || an.FaultDrained > 0 {
				return math.Inf(1)
			}
		}
		return cost
	}
}

// runObjective evaluates obj, converting a panic (a faulting workload
// under a FailFast policy crashes through the legacy entry points)
// into a +Inf cost instead of killing the tuning loop.
func runObjective(obj Objective, a map[string]int) (cost float64) {
	defer func() {
		if r := recover(); r != nil {
			cost = math.Inf(1)
		}
	}()
	return obj(a)
}

// Memo addresses one workload in the persistent content-addressed
// evaluation store: Program and Seed complete the (program, config,
// seed) key of a configuration, and Tenant attributes hits for the
// per-tenant counters. A Memo without a Store or a Program is off.
//
// The store holds measurements only: a faulted evaluation is never
// stored, and a faulted entry already in the store is a miss. A fault
// may be transient, so a retry must measure again rather than be
// answered with the first attempt's fault — for this tenant and for
// every other one sharing the store.
type Memo struct {
	Store   *evalcache.Store
	Program string
	Seed    int64
	Tenant  string
}

func (m Memo) on() bool { return m.Store != nil && m.Program != "" }

// Get returns the stored measurement of a, counting a hit or a miss.
func (m Memo) Get(a map[string]int) (EvalRecord, bool) {
	if !m.on() {
		return EvalRecord{}, false
	}
	e, ok := m.Store.Get(evalcache.Key{Program: m.Program, Config: assignKey(a), Seed: m.Seed}, m.Tenant)
	if !ok || e.Faulted {
		return EvalRecord{}, false
	}
	return EvalRecord{Assignment: CopyAssign(a), Cost: e.Cost}, true
}

// Put journals rec into the store unless it faulted. Put is
// first-wins, so a concurrent search writing the same key is harmless.
func (m Memo) Put(rec EvalRecord) {
	if m.on() && !rec.Faulted {
		m.Store.Put(evalcache.Entry{Program: m.Program, Config: assignKey(rec.Assignment),
			Seed: m.Seed, Cost: rec.Cost, Tenant: m.Tenant})
	}
}

// Correct replaces the stored record of rec's configuration durably
// (replay is last-wins): a repair of a cost that was wrong.
func (m Memo) Correct(rec EvalRecord) {
	if m.on() {
		m.Store.Correct(evalcache.Entry{Program: m.Program, Config: assignKey(rec.Assignment),
			Seed: m.Seed, Cost: rec.Cost, Faulted: rec.Faulted})
	}
}

// Wrap returns an Objective that answers a stored configuration from
// the store and measures every other one with obj, storing the result
// unless it faulted. Costs are deterministic per (program, config,
// seed), so a hit leaves the search trajectory unchanged and only
// skips the measuring.
func (m Memo) Wrap(obj Objective) Objective {
	if !m.on() {
		return obj
	}
	return func(a map[string]int) float64 {
		if rec, ok := m.Get(a); ok {
			return rec.EffectiveCost()
		}
		cost := obj(a)
		m.Put(NewRecord(a, cost))
		return cost
	}
}
