package obs

import "maps"

// Fleet-layer metrics, published by internal/fleet:
//
// Coordinator side:
//
//	fleet.workers              gauge    (workers the search started with)
//	fleet.workers.lost         counter  (workers benched after repeated failures)
//	fleet.shards.total         gauge    (shards the asked batches were split into)
//	fleet.shards.done          counter  (shards merged)
//	fleet.shards.redispatched  counter  (lease expiries / transport errors re-queued)
//	fleet.shards.stolen        counter  (speculative duplicate dispatches)
//	fleet.evals.merged         counter  (distinct evaluations merged into the table)
//	fleet.evals.duplicate      counter  (evaluations discarded as duplicates)
//	fleet.evals.local          counter  (configs no batch asked for, evaluated locally)
//	fleet.evals.resumed        counter  (evaluations re-adopted from a checkpoint)
//	fleet.shard.rtt_ns         histogram (dispatch -> merged, per shard attempt)
//
// Worker side:
//
//	fleet.worker.shards        counter  (shards evaluated to completion)
//	fleet.worker.evals         counter  (configurations actually measured)
//
// Configurations answered from the shared evaluation store count in
// the cache.* grammar (see AnalyzeCache), the same keys local tuning
// uses — fleet and local hit accounting agree by construction.
//
// Hostile-network ledger (coordinator side), labelled by fault class
// (fleet.FaultClass / netchaos class names):
//
//	fleet.net.faults{class}      counter (classified dispatch faults observed)
//	fleet.net.injected{class}    counter (faults a netchaos.Injector fired)
//
// Byzantine-defense ledger (coordinator side):
//
//	fleet.byzantine.crosschecked counter (audited cost comparisons)
//	fleet.byzantine.divergent    counter (audits that disagreed)
//	fleet.byzantine.quarantined  counter (workers quarantined for lying)
//	fleet.byzantine.reverified   counter (prior contributions re-measured)
//	fleet.byzantine.corrected    counter (re-verified records repaired)
//
// Per-worker scorecards, labelled by the worker base URL as given (the
// name fleet.Stats.Health[].Worker uses):
//
//	fleet.peer.dispatched{peer}   counter
//	fleet.peer.failed{peer}       counter
//	fleet.peer.evals{peer}        counter
//	fleet.peer.crosschecked{peer} counter
//	fleet.peer.divergent{peer}    counter
//	fleet.peer.quarantined{peer}  gauge (0/1)
//	fleet.peer.benched{peer}      gauge (0/1)
//
// Like the jobs.* metrics, these live beside the pattern keys in one
// Collector; Analyze skips them and AnalyzeFleet digests them.

// FleetHealth is the digest of the fleet.* keys in a Snapshot, feeding
// report.FleetTable and the /statusz pages of coordinator and worker.
type FleetHealth struct {
	Workers     int64 `json:"workers"`
	WorkersLost int64 `json:"workers_lost"`

	ShardsTotal        int64 `json:"shards_total"`
	ShardsDone         int64 `json:"shards_done"`
	ShardsRedispatched int64 `json:"shards_redispatched"`
	ShardsStolen       int64 `json:"shards_stolen"`

	EvalsMerged    int64 `json:"evals_merged"`
	EvalsDuplicate int64 `json:"evals_duplicate"`
	EvalsLocal     int64 `json:"evals_local"`
	EvalsResumed   int64 `json:"evals_resumed"`

	ShardRTT HistSnapshot `json:"shard_rtt_ns"`

	WorkerShards int64 `json:"worker_shards"`
	WorkerEvals  int64 `json:"worker_evals"`

	// NetFaults maps fault class -> count from fleet.net.faults, and
	// "injected.<class>" -> count from fleet.net.injected, so both what
	// the wire did and what a chaos injector fired are in one ledger.
	NetFaults map[string]int64 `json:"net_faults,omitempty"`

	// Byzantine-defense ledger.
	ByzCrossChecked int64 `json:"byz_crosschecked,omitempty"`
	ByzDivergent    int64 `json:"byz_divergent,omitempty"`
	ByzQuarantined  int64 `json:"byz_quarantined,omitempty"`
	ByzReverified   int64 `json:"byz_reverified,omitempty"`
	ByzCorrected    int64 `json:"byz_corrected,omitempty"`

	// Peers are the per-worker scorecards from the fleet.peer.*
	// families, sorted by name (the worker URL).
	Peers []PeerHealth `json:"peers,omitempty"`
}

// PeerHealth is one worker's scorecard as seen by the coordinator.
type PeerHealth struct {
	Name         string `json:"name"`
	Dispatched   int64  `json:"dispatched"`
	Failed       int64  `json:"failed"`
	Evals        int64  `json:"evals"`
	CrossChecked int64  `json:"cross_checked"`
	Divergent    int64  `json:"divergent"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	Benched      bool   `json:"benched,omitempty"`
}

// AnalyzeFleet extracts the fleet digest from a snapshot. ok is false
// when the snapshot holds no fleet.* signal at all (the collector never
// saw distributed work, coordinator- or worker-side).
func AnalyzeFleet(s Snapshot) (h FleetHealth, ok bool) {
	h = FleetHealth{
		Workers:            s.Gauges["fleet.workers"],
		WorkersLost:        s.Counters["fleet.workers.lost"],
		ShardsTotal:        s.Gauges["fleet.shards.total"],
		ShardsDone:         s.Counters["fleet.shards.done"],
		ShardsRedispatched: s.Counters["fleet.shards.redispatched"],
		ShardsStolen:       s.Counters["fleet.shards.stolen"],
		EvalsMerged:        s.Counters["fleet.evals.merged"],
		EvalsDuplicate:     s.Counters["fleet.evals.duplicate"],
		EvalsLocal:         s.Counters["fleet.evals.local"],
		EvalsResumed:       s.Counters["fleet.evals.resumed"],
		ShardRTT:           s.Histograms["fleet.shard.rtt_ns"],
		WorkerShards:       s.Counters["fleet.worker.shards"],
		WorkerEvals:        s.Counters["fleet.worker.evals"],
		ByzCrossChecked:    s.Counters["fleet.byzantine.crosschecked"],
		ByzDivergent:       s.Counters["fleet.byzantine.divergent"],
		ByzQuarantined:     s.Counters["fleet.byzantine.quarantined"],
		ByzReverified:      s.Counters["fleet.byzantine.reverified"],
		ByzCorrected:       s.Counters["fleet.byzantine.corrected"],
	}
	faults, injected := s.CounterFamilies["fleet.net.faults"], s.CounterFamilies["fleet.net.injected"]
	if len(faults)+len(injected) > 0 {
		h.NetFaults = make(map[string]int64, len(faults)+len(injected))
		maps.Copy(h.NetFaults, faults)
		for class, n := range injected {
			h.NetFaults["injected."+class] = n
		}
	}
	cf, gf := s.CounterFamilies, s.GaugeFamilies
	names := map[string]bool{}
	members(names, cf, "fleet.peer.dispatched", "fleet.peer.failed", "fleet.peer.evals",
		"fleet.peer.crosschecked", "fleet.peer.divergent")
	members(names, gf, "fleet.peer.quarantined", "fleet.peer.benched")
	for _, name := range sorted(names) {
		h.Peers = append(h.Peers, PeerHealth{
			Name:         name,
			Dispatched:   cf["fleet.peer.dispatched"][name],
			Failed:       cf["fleet.peer.failed"][name],
			Evals:        cf["fleet.peer.evals"][name],
			CrossChecked: cf["fleet.peer.crosschecked"][name],
			Divergent:    cf["fleet.peer.divergent"][name],
			Quarantined:  gf["fleet.peer.quarantined"][name] > 0,
			Benched:      gf["fleet.peer.benched"][name] > 0,
		})
	}
	ok = h.Workers > 0 || h.ShardsTotal > 0 || h.WorkerShards > 0 ||
		h.WorkerEvals > 0 ||
		len(h.NetFaults) > 0 || len(h.Peers) > 0 || h.ByzCrossChecked > 0
	return h, ok
}

// Coordinator reports whether the digest carries coordinator-side
// signal (as opposed to a worker process's own counters).
func (h FleetHealth) Coordinator() bool { return h.Workers > 0 || h.ShardsTotal > 0 }

// Progress is the fraction of shards merged, in [0,1] (0 when the
// total is unknown).
func (h FleetHealth) Progress() float64 {
	if h.ShardsTotal <= 0 {
		return 0
	}
	p := float64(h.ShardsDone) / float64(h.ShardsTotal)
	if p > 1 {
		return 1
	}
	return p
}

// DuplicateRate is the fraction of worker-produced evaluations
// discarded as duplicates of already-merged ones — the overhead price
// of stealing and re-dispatch.
func (h FleetHealth) DuplicateRate() float64 {
	total := h.EvalsMerged + h.EvalsDuplicate
	if total == 0 {
		return 0
	}
	return float64(h.EvalsDuplicate) / float64(total)
}

// Degraded reports whether the fleet showed distress: lost workers,
// re-dispatched leases, unasked configs evaluated locally, or a worker
// quarantined for lying.
func (h FleetHealth) Degraded() bool {
	return h.WorkersLost > 0 || h.ShardsRedispatched > 0 || h.EvalsLocal > 0 ||
		h.ByzQuarantined > 0
}
