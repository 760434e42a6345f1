package tuning

import (
	"fmt"
	"math"

	"patty/internal/evalcache"
	"patty/internal/obs"
)

// ConfigMetrics is the observability record of one objective
// evaluation: the assignment, its measured cost, and the per-pattern
// analysis digested from the collector snapshot taken right after the
// workload ran.
type ConfigMetrics struct {
	Assignment map[string]int
	Cost       float64
	Analyses   []obs.PatternAnalysis
	// Faulted marks a tainted measurement: the objective panicked, or
	// the fault-layer counters recorded lost work (errors, timeouts or
	// drained items) during the run. Faulted configurations keep their
	// record — the trace shows WHICH configurations fault — but their
	// cost is +Inf so no tuner ever walks toward one.
	Faulted bool
}

// Observed couples an Objective with the obs.Collector its workload
// writes into, closing the feedback loop the paper's process model
// ends on (Fig. 4c): instead of treating each configuration as a
// black-box wall-clock number, every evaluation resets the collector,
// runs the workload, and digests a snapshot into per-pattern stage
// utilizations, queue pressure and worker imbalance.
//
// Two consumers exist today: Metrics is the per-configuration metrics
// trace (internal/report renders it as the bottleneck table), and
// LinearSearch.Observer uses the last analysis to early-stop dimension
// sweeps whose remaining candidates are dominated.
type Observed struct {
	// Collector is the collector the instrumented patterns record
	// into. Must be non-nil; the workload's patterns are attached to
	// it via their Instrument methods.
	Collector *obs.Collector
	// Metrics accumulates one entry per distinct evaluated
	// configuration, in evaluation order.
	Metrics []ConfigMetrics

	// Cache, when non-nil, is the persistent content-addressed
	// evaluation store: Wrap consults it before measuring and journals
	// every fresh measurement into it. CacheProgram and CacheSeed
	// complete the (program, config, seed) address; CacheTenant
	// attributes hits for the per-tenant counters.
	Cache        *evalcache.Store
	CacheProgram string
	CacheSeed    int64
	CacheTenant  string

	byKey map[string][]obs.PatternAnalysis
}

// Wrap returns an Objective that resets the collector, delegates to
// obj (which must run the instrumented workload), then snapshots and
// analyzes the run. The evaluator caches costs by assignment, so a
// repeated assignment reuses the analysis of its first run (see
// AnalysesFor).
//
// Faults are penalized but recorded: a panicking objective — or one
// whose run left lost work in the fault-layer counters (errors,
// timeouts, drained items) — still produces a ConfigMetrics entry and
// an analysis, but its cost becomes +Inf so search never converges on
// a configuration that only looks fast because it crashed early.
// Healed retries alone do not penalize: the result was correct and
// the retry latency is already inside the measured cost.
// When Cache is set, a hit short-circuits the measurement entirely:
// the entry's cost (with Faulted mapped back to +Inf) is returned and
// recorded in Metrics with a nil analysis — the search trajectory is
// unchanged because costs are deterministic per (program, config,
// seed), only the work of re-measuring is skipped.
func (o *Observed) Wrap(obj Objective) Objective {
	return func(a map[string]int) float64 {
		if o.Cache != nil && o.CacheProgram != "" {
			key := evalcache.Key{Program: o.CacheProgram, Config: assignKey(a), Seed: o.CacheSeed}
			if e, ok := o.Cache.Get(key, o.CacheTenant); ok {
				cost := e.EffectiveCost()
				o.Metrics = append(o.Metrics, ConfigMetrics{
					Assignment: CopyAssign(a),
					Cost:       cost,
					Faulted:    e.Faulted,
				})
				return cost
			}
		}
		o.Collector.Reset()
		cost, faulted := runObjective(obj, a)
		analyses := obs.Analyze(o.Collector.Snapshot())
		for _, an := range analyses {
			if an.FaultErrors > 0 || an.FaultTimeouts > 0 || an.FaultDrained > 0 {
				faulted = true
			}
		}
		if faulted {
			cost = math.Inf(1)
		}
		if o.byKey == nil {
			o.byKey = make(map[string][]obs.PatternAnalysis)
		}
		o.byKey[assignKey(a)] = analyses
		o.Metrics = append(o.Metrics, ConfigMetrics{
			Assignment: CopyAssign(a),
			Cost:       cost,
			Analyses:   analyses,
			Faulted:    faulted,
		})
		if o.Cache != nil && o.CacheProgram != "" {
			// Journal the fresh measurement; Put is first-wins, so a
			// concurrent search writing the same key is harmless. +Inf is
			// not JSON-encodable — the Faulted flag carries it.
			o.Cache.Put(evalcache.Entry{
				Program: o.CacheProgram,
				Config:  assignKey(a),
				Seed:    o.CacheSeed,
				Cost:    finiteOr(cost, 0),
				Faulted: faulted,
				Tenant:  o.CacheTenant,
			})
		}
		return cost
	}
}

// finiteOr replaces a non-finite cost with fallback (the Faulted flag
// preserves the information).
func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

// runObjective evaluates obj, converting a panic (a faulting workload
// under a FailFast policy crashes through the legacy entry points)
// into a faulted evaluation instead of killing the tuning loop.
func runObjective(obj Objective, a map[string]int) (cost float64, faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			cost, faulted = math.Inf(1), true
		}
	}()
	return obj(a), false
}

// AnalysesFor returns the recorded analysis for an assignment, or nil
// when that assignment was never evaluated through Wrap.
func (o *Observed) AnalysesFor(a map[string]int) []obs.PatternAnalysis {
	if o == nil {
		return nil
	}
	return o.byKey[assignKey(a)]
}

// DominatesAbove reports whether every assignment that only increases
// dimension key beyond its value in a is dominated by a itself:
// the pipeline the key belongs to measured as saturated
// (obs.SaturationThreshold) at a bottleneck stage this parameter does
// not feed, so adding capacity along key cannot raise throughput.
// This is the pruning rule of Fonseca-style runtime-feedback tuners:
// only the bottleneck's own resources are worth sweeping.
//
// The rule fires for two pipeline capacity parameters:
//
//   - stage.<i>.replication when the saturated bottleneck is a stage
//     j != i (replicating a non-bottleneck stage is pure overhead);
//   - buffersize when any stage is saturated (a compute-bound
//     pipeline gains nothing from deeper queues).
//
// Both keys are built from the saturated pipeline's analysis, so a
// pipeline name may contain dots (transform names patterns
// "<Fn>.L<i>").
//
// Worker-count parameters of masterworker/parallelfor are never
// pruned — adding workers attacks the busiest-worker bottleneck
// directly. Returns false when a was never observed.
func (o *Observed) DominatesAbove(key string, a map[string]int) bool {
	for _, an := range o.AnalysesFor(a) {
		if an.Kind != obs.KindPipeline || !an.Saturated() {
			continue
		}
		prefix := obs.KindPipeline + "." + an.Name + "."
		if key == prefix+"buffersize" {
			return true
		}
		for j := range an.Stages {
			if j != an.BottleneckStage && key == fmt.Sprintf("%sstage.%d.replication", prefix, j) {
				return true
			}
		}
	}
	return false
}
