package report

import (
	"fmt"
	"slices"
	"strings"

	"patty/internal/obs"
)

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
// the cache.* grammar (see CacheTable), the same keys local tuning
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
// Collector; obs.Analyze skips them and FleetTable reads them.

// FleetTable renders the fleet.* keys of s in the style of
// ServiceTable: shard progress, the evaluation ledger, shard
// round-trip quantiles (coordinator side), the worker's own counts,
// the hostile-network fault ledger (an injected fault counts under
// "injected.<class>"), the byzantine audit, per-worker health rows
// sorted by URL (with an ok/BENCHED/QUARANTINED status column), and —
// only when present — the distress signals (lost workers,
// re-dispatched leases, local fallback evaluations, quarantined
// liars). It is "" when s holds no fleet.* signal (the collector never
// saw distributed work, coordinator- or worker-side).
func FleetTable(s obs.Snapshot) string {
	c, g, cf, gf := s.Counters, s.Gauges, s.CounterFamilies, s.GaugeFamilies
	workers, lost, total := g["fleet.workers"], c["fleet.workers.lost"], g["fleet.shards.total"]
	workerShards, workerEvals := c["fleet.worker.shards"], c["fleet.worker.evals"]
	redispatched, local := c["fleet.shards.redispatched"], c["fleet.evals.local"]
	checked, quarantined := c["fleet.byzantine.crosschecked"], c["fleet.byzantine.quarantined"]

	net := map[string]int64{}
	for class, n := range cf["fleet.net.faults"] {
		net[class] = n
	}
	for class, n := range cf["fleet.net.injected"] {
		net["injected."+class] = n
	}
	peers := labels(nil, cf, "fleet.peer.dispatched", "fleet.peer.failed", "fleet.peer.evals",
		"fleet.peer.crosschecked", "fleet.peer.divergent")
	peers = labels(peers, gf, "fleet.peer.quarantined", "fleet.peer.benched")
	coordinator := workers > 0 || total > 0
	if !coordinator && workerShards <= 0 && workerEvals <= 0 && len(net) == 0 && len(peers) == 0 && checked <= 0 {
		return ""
	}

	var b strings.Builder
	b.WriteString("=== tuning fleet (from internal/obs fleet.* keys) ===\n")
	if coordinator {
		done, merged, duplicate := c["fleet.shards.done"], c["fleet.evals.merged"], c["fleet.evals.duplicate"]
		fmt.Fprintf(&b, "workers %d (%d lost)   shards %d/%d merged (%.0f%%), %d stolen\n",
			workers, lost, done, total, 100*min(ratio(done, total), 1), c["fleet.shards.stolen"])
		fmt.Fprintf(&b, "evals   merged %d, duplicate %d (%.0f%% overhead), resumed %d, local fallback %d\n",
			merged, duplicate, 100*ratio(duplicate, merged+duplicate), c["fleet.evals.resumed"], local)
		if rtt := s.Histograms["fleet.shard.rtt_ns"]; rtt.Count > 0 {
			fmt.Fprintf(&b, "shard rtt p50 %.1f ms, p95 %.1f ms, max %.1f ms (%d attempts)\n",
				rtt.Quantile(0.5)/1e6, rtt.Quantile(0.95)/1e6, float64(rtt.Max)/1e6, rtt.Count)
		}
	}
	if workerShards > 0 || workerEvals > 0 {
		fmt.Fprintf(&b, "worker  %d shard(s) served, %d eval(s) measured\n", workerShards, workerEvals)
	}
	if len(net) > 0 {
		classes := make([]string, 0, len(net))
		for class := range net {
			classes = append(classes, class)
		}
		slices.Sort(classes)
		parts := make([]string, 0, len(classes))
		for _, class := range classes {
			parts = append(parts, fmt.Sprintf("%s %d", class, net[class]))
		}
		fmt.Fprintf(&b, "net faults: %s\n", strings.Join(parts, ", "))
	}
	if checked > 0 || quarantined > 0 {
		fmt.Fprintf(&b, "byzantine audit: %d cross-checked, %d divergent, %d quarantined, %d re-verified, %d corrected\n",
			checked, c["fleet.byzantine.divergent"], quarantined,
			c["fleet.byzantine.reverified"], c["fleet.byzantine.corrected"])
	}
	if len(peers) > 0 {
		b.WriteString("peers:\n")
		for _, p := range peers {
			status := "ok"
			switch {
			case gf["fleet.peer.quarantined"][p] > 0:
				status = "QUARANTINED"
			case gf["fleet.peer.benched"][p] > 0:
				status = "BENCHED"
			}
			fmt.Fprintf(&b, "   %-24s dispatched %-4d failed %-4d evals %-5d checked %-3d divergent %-3d %s\n",
				p, cf["fleet.peer.dispatched"][p], cf["fleet.peer.failed"][p], cf["fleet.peer.evals"][p],
				cf["fleet.peer.crosschecked"][p], cf["fleet.peer.divergent"][p], status)
		}
	}
	switch {
	case lost > 0 || redispatched > 0 || local > 0 || quarantined > 0:
		b.WriteString("distress:\n")
		if lost > 0 {
			fmt.Fprintf(&b, "   %d worker(s) benched after repeated failures\n", lost)
		}
		if redispatched > 0 {
			fmt.Fprintf(&b, "   %d lease(s) expired or failed and were re-dispatched\n", redispatched)
		}
		if local > 0 {
			fmt.Fprintf(&b, "   %d config(s) no batch asked for, evaluated locally\n", local)
		}
		if quarantined > 0 {
			fmt.Fprintf(&b, "   %d worker(s) quarantined for divergent costs; contributions re-verified\n", quarantined)
		}
	case coordinator:
		b.WriteString("no distress: no workers lost, no leases re-dispatched, table complete\n")
	}
	return b.String()
}
