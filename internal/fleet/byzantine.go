package fleet

import (
	"math"
	"sort"

	"patty/internal/obs"
	"patty/internal/seed"
	"patty/internal/tuning"
)

// The byzantine defense: a worker that answers quickly and
// well-formedly but with *wrong costs* is invisible to every transport
// check, and one adopted lie poisons the deterministic merge that the
// search — and every downstream gate — trusts. So the coordinator
// audits: for each shard it re-evaluates a seeded sample of K
// configurations locally (the objective is pure, so the honest cost
// is reproducible anywhere) while the shard is in flight, and compares
// when the response arrives. A worker whose report
// diverges beyond tolerance is quarantined through the breaker, its
// in-flight shard is re-queued for an honest worker, and every
// evaluation it previously contributed is re-verified locally —
// divergent records are corrected in the search's record of costs
// (and its journal, when it has one). The sample indices are a pure
// function of (seed, search signature, shard id), so auditing never
// perturbs the bit-identical-merge guarantee.
//
// The sampling argument: a liar that corrupts a fraction f of its
// evaluations escapes one shard's audit with probability (1-f)^K —
// 64% for f=0.2, K=2 — but must escape *every* shard it answers, and
// a single detection retroactively voids all of its contributions via
// re-verification. Lying is therefore only safe at f≈0, i.e. when the
// lies don't matter.

// WorkerHealth is the per-worker scorecard in Stats.Health — one row
// per configured worker, rendered by report.FleetTable.
type WorkerHealth struct {
	Worker       string `json:"worker"`
	Dispatched   int    `json:"dispatched"`
	Failed       int    `json:"failed"`
	Evals        int    `json:"evals"`
	CrossChecked int    `json:"cross_checked"`
	Divergent    int    `json:"divergent"`
	Benched      bool   `json:"benched,omitempty"`
	Quarantined  bool   `json:"quarantined,omitempty"`
}

// workerHealth is the scheduler's mutable counterpart (guarded by mu).
type workerHealth struct {
	dispatched, failed, evals, checked, divergent int
	benched, quarantined                          bool
	inst                                          peerInstruments
}

// peerInstruments are the live fleet.peer.* metrics for one worker,
// labelled by its base URL.
type peerInstruments struct {
	dispatched, failed, evals *obs.Counter
	crosschecked, divergent   *obs.Counter
	quarantined, benched      *obs.Gauge
}

// healthOf returns (creating on first use) the scorecard for worker.
// Callers hold s.mu.
func (s *scheduler) healthOf(worker string) *workerHealth {
	h := s.health[worker]
	if h == nil {
		h = &workerHealth{inst: peerInstruments{
			dispatched:   s.coll.CounterOf("fleet.peer.dispatched", worker),
			failed:       s.coll.CounterOf("fleet.peer.failed", worker),
			evals:        s.coll.CounterOf("fleet.peer.evals", worker),
			crosschecked: s.coll.CounterOf("fleet.peer.crosschecked", worker),
			divergent:    s.coll.CounterOf("fleet.peer.divergent", worker),
			quarantined:  s.coll.GaugeOf("fleet.peer.quarantined", worker),
			benched:      s.coll.GaugeOf("fleet.peer.benched", worker),
		}}
		s.health[worker] = h
	}
	return h
}

// noteDispatch counts a shard dispatch attempt against worker.
func (s *scheduler) noteDispatch(worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.healthOf(worker)
	h.dispatched++
	h.inst.dispatched.Inc()
}

// noteFault records a classified dispatch fault. Busy/throttle
// refusals count as net faults but not against the worker's health
// (an overloaded worker is not a broken one).
func (s *scheduler) noteFault(worker string, class FaultClass, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NetFaults[string(class)]++
	s.coll.CounterOf("fleet.net.faults", string(class)).Inc()
	if failed {
		h := s.healthOf(worker)
		h.failed++
		h.inst.failed.Inc()
	}
}

// noteBenched flags worker as permanently lost after repeated
// failures.
func (s *scheduler) noteBenched(worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.healthOf(worker)
	h.benched = true
	h.inst.benched.Set(1)
	s.stats.WorkersLost++
	s.inst.lost.Inc()
}

// healthRows exports the scorecards, sorted by worker, for Stats.
func (s *scheduler) healthRows(workers []string) []WorkerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range workers { // ensure every configured worker has a row
		s.healthOf(w)
	}
	out := make([]WorkerHealth, 0, len(s.health))
	for w, h := range s.health {
		out = append(out, WorkerHealth{
			Worker: w, Dispatched: h.dispatched, Failed: h.failed,
			Evals: h.evals, CrossChecked: h.checked, Divergent: h.divergent,
			Benched: h.benched, Quarantined: h.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// pickSample deterministically selects k distinct indices in [0, n)
// for the audit — a pure function of (seedBase, search signature,
// shard id), so every run (and every holder of a stolen shard) audits
// the same configurations.
func pickSample(seedBase int64, search string, shard, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	h := seedBase
	for _, b := range []byte(search) {
		h = seed.Mix(h, int64(b))
	}
	h = seed.Mix(h, int64(shard))
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for i := 0; len(out) < k; i++ {
		idx := int(uint64(seed.Mix(h, int64(i))) % uint64(n))
		if !picked[idx] {
			picked[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// costsAgree compares a reported cost against the local truth. Faulted
// evaluations (Inf/NaN) agree only with faulted evaluations; finite
// costs agree within a relative tolerance (the objective is pure, so
// honest divergence is at most float noise).
func costsAgree(reported, truth, tol float64) bool {
	rBad := math.IsInf(reported, 0) || math.IsNaN(reported)
	tBad := math.IsInf(truth, 0) || math.IsNaN(truth)
	if rBad || tBad {
		return rBad == tBad
	}
	return math.Abs(reported-truth) <= tol*math.Max(1, math.Max(math.Abs(reported), math.Abs(truth)))
}

// truthCell is one single-flight entry of the audit cache: the first
// caller for a key measures and closes done; every later caller waits
// on done and reads cost.
type truthCell struct {
	done chan struct{}
	cost float64
}

// localTruth returns the honest cost of an assignment, evaluating
// LocalObjective at most once per key (cached across audits and
// re-verification). Concurrent callers for one key — an audit-ahead
// beside a stolen shard's co-holder, or beside quarantine
// re-verification — share a single measurement.
func (s *scheduler) localTruth(a map[string]int, opts Options) float64 {
	key := tuning.AssignKey(a)
	s.mu.Lock()
	c, ok := s.truth[key]
	if !ok {
		c = &truthCell{done: make(chan struct{})}
		s.truth[key] = c
	}
	s.mu.Unlock()
	if ok {
		<-c.done
		return c.cost
	}
	c.cost = opts.LocalObjective(a) // outside the lock: may be slow
	close(c.done)
	return c.cost
}

// auditAhead measures the local truth of req's audit sample while the
// shard is in flight, and returns the function that joins it. The
// sample depends only on (seed, search signature, shard id, number of
// configs), and dispatch rejects any response whose length differs
// from len(req.Configs), so it is fully known before the response
// arrives; crossCheck then finds every truth it needs already cached.
// A failed dispatch keeps its truth cached for the shard's
// re-dispatch, which draws the same sample.
func (s *scheduler) auditAhead(req ShardRequest, opts Options) (join func()) {
	if opts.CrossCheck <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, idx := range pickSample(opts.CrossCheckSeed, req.Search, req.Shard, len(req.Configs), opts.CrossCheck) {
			s.localTruth(req.Configs[idx], opts)
		}
	}()
	return func() { <-done }
}

// crossCheck audits one shard response: compare the seeded sample
// against its local truth (already measured by auditAhead). Reports
// whether the worker diverged (in which case the response must not be
// merged).
func (s *scheduler) crossCheck(worker string, req ShardRequest, resp *ShardResponse, opts Options) bool {
	if opts.CrossCheck <= 0 {
		return false
	}
	divergent := false
	for _, idx := range pickSample(opts.CrossCheckSeed, req.Search, req.Shard, len(req.Configs), opts.CrossCheck) {
		reported := resp.Evals[idx].EffectiveCost()
		truth := s.localTruth(req.Configs[idx], opts)
		s.mu.Lock()
		h := s.healthOf(worker)
		h.checked++
		h.inst.crosschecked.Inc()
		s.stats.CrossChecked++
		s.inst.crosschecked.Inc()
		if !costsAgree(reported, truth, opts.CrossCheckTol) {
			divergent = true
			h.divergent++
			h.inst.divergent.Inc()
			s.stats.Divergent++
			s.inst.divergent.Inc()
		}
		s.mu.Unlock()
	}
	return divergent
}

// quarantine removes a divergent worker from the fleet and repairs the
// damage: trip the byzantine breaker (so the worker stays out for the
// rest of the search), then re-verify every evaluation the worker
// previously contributed to the merge — records whose cost disagrees
// with the locally re-measured truth are corrected in the record.
// After this the record contains only honest costs; a correction of a
// cost the running search already read marks the run stale, and Tune
// reruns it over the repaired record. That is what keeps the result
// bit-identical to a local run.
func (s *scheduler) quarantine(worker string, opts Options) {
	s.mu.Lock()
	s.byz.Record(worker, true)
	h := s.healthOf(worker)
	if h.quarantined {
		s.mu.Unlock()
		return
	}
	h.quarantined = true
	h.inst.quarantined.Set(1)
	s.stats.ByzantineQuarantined = append(s.stats.ByzantineQuarantined, worker)
	sort.Strings(s.stats.ByzantineQuarantined)
	s.inst.quarantined.Inc()
	s.repairing++
	// Snapshot the worker's prior contributions under the lock; the
	// re-measurement happens outside it.
	var suspect []tuning.EvalRecord
	for key, src := range s.source {
		if src == worker {
			rec, _ := s.ck.Lookup(key)
			suspect = append(suspect, rec)
		}
	}
	s.mu.Unlock()

	for _, rec := range suspect {
		truth := s.localTruth(rec.Assignment, opts)
		s.mu.Lock()
		s.stats.Reverified++
		s.inst.reverified.Inc()
		if !costsAgree(rec.EffectiveCost(), truth, opts.CrossCheckTol) {
			key := tuning.AssignKey(rec.Assignment)
			s.ck.Correct(rec.Assignment, truth)
			delete(s.source, key)            // now locally vouched for
			s.stale = s.stale || s.read[key] // the running search used the lie
			// The liar's cost reached the shared store when its shard
			// merged; a poisoned entry must not outlive the search, let
			// alone answer another tenant's job.
			s.cache.Correct(tuning.NewRecord(rec.Assignment, truth))
			s.stats.Corrected++
			s.inst.corrected.Inc()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if s.stats.Corrected > 0 {
		s.ck.Flush() // best effort; the final Flush reports errors
	}
	s.repairing--
	s.cond.Broadcast()
	s.mu.Unlock()
}
