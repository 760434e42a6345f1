package obs

import (
	"sort"
	"strings"
)

// Fleet-layer metric key grammar, published by internal/fleet:
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
// Hostile-network ledger (coordinator side; <class> per
// fleet.FaultClass / netchaos class names):
//
//	fleet.net.<class>            counter (classified dispatch faults observed)
//	fleet.net.injected.<class>   counter (faults a netchaos.Injector fired)
//
// Byzantine-defense ledger (coordinator side):
//
//	fleet.byzantine.crosschecked counter (audited cost comparisons)
//	fleet.byzantine.divergent    counter (audits that disagreed)
//	fleet.byzantine.quarantined  counter (workers quarantined for lying)
//	fleet.byzantine.reverified   counter (prior contributions re-measured)
//	fleet.byzantine.corrected    counter (re-verified records repaired)
//
// Per-worker scorecards (<peer> is fleet.peerKey of the worker URL):
//
//	fleet.peer.<peer>.dispatched   counter
//	fleet.peer.<peer>.failed       counter
//	fleet.peer.<peer>.evals        counter
//	fleet.peer.<peer>.crosschecked counter
//	fleet.peer.<peer>.divergent    counter
//	fleet.peer.<peer>.quarantined  gauge (0/1)
//	fleet.peer.<peer>.benched      gauge (0/1)
//
// Like the jobs.* keys, these live beside the pattern keys in one
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

	// NetFaults maps fault class -> count for every fleet.net.* key
	// (including the injected.* sub-keys), so both what the wire did and
	// what a chaos injector fired are in one ledger.
	NetFaults map[string]int64 `json:"net_faults,omitempty"`

	// Byzantine-defense ledger.
	ByzCrossChecked int64 `json:"byz_crosschecked,omitempty"`
	ByzDivergent    int64 `json:"byz_divergent,omitempty"`
	ByzQuarantined  int64 `json:"byz_quarantined,omitempty"`
	ByzReverified   int64 `json:"byz_reverified,omitempty"`
	ByzCorrected    int64 `json:"byz_corrected,omitempty"`

	// Peers are the per-worker scorecards parsed from the
	// fleet.peer.<name>.* keys, sorted by name.
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
	peers := map[string]*PeerHealth{}
	peer := func(rest string) (*PeerHealth, string, bool) {
		i := strings.LastIndex(rest, ".")
		if i <= 0 || i == len(rest)-1 {
			return nil, "", false
		}
		name, field := rest[:i], rest[i+1:]
		p := peers[name]
		if p == nil {
			p = &PeerHealth{Name: name}
			peers[name] = p
		}
		return p, field, true
	}
	for key, n := range s.Counters {
		switch {
		case strings.HasPrefix(key, "fleet.net."):
			if h.NetFaults == nil {
				h.NetFaults = make(map[string]int64)
			}
			h.NetFaults[strings.TrimPrefix(key, "fleet.net.")] = n
		case strings.HasPrefix(key, "fleet.peer."):
			p, field, pok := peer(strings.TrimPrefix(key, "fleet.peer."))
			if !pok {
				continue
			}
			switch field {
			case "dispatched":
				p.Dispatched = n
			case "failed":
				p.Failed = n
			case "evals":
				p.Evals = n
			case "crosschecked":
				p.CrossChecked = n
			case "divergent":
				p.Divergent = n
			}
		}
	}
	for key, n := range s.Gauges {
		if !strings.HasPrefix(key, "fleet.peer.") {
			continue
		}
		p, field, pok := peer(strings.TrimPrefix(key, "fleet.peer."))
		if !pok {
			continue
		}
		switch field {
		case "quarantined":
			p.Quarantined = n > 0
		case "benched":
			p.Benched = n > 0
		}
	}
	for _, p := range peers {
		h.Peers = append(h.Peers, *p)
	}
	sort.Slice(h.Peers, func(i, j int) bool { return h.Peers[i].Name < h.Peers[j].Name })
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
