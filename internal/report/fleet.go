package report

import (
	"fmt"
	"sort"
	"strings"

	"patty/internal/obs"
)

// FleetTable renders the fleet-layer digest (obs.AnalyzeFleet) in the
// style of ServiceTable: shard progress, the evaluation ledger, shard
// round-trip quantiles, the hostile-network fault ledger, the
// byzantine audit, per-worker health rows (with an
// ok/BENCHED/QUARANTINED status column), and — only when present — the
// distress signals (lost workers, re-dispatched leases, local fallback
// evaluations, quarantined liars). It backs the /statusz pages of the
// coordinator and of `patty worker`.
func FleetTable(h obs.FleetHealth) string {
	var b strings.Builder
	b.WriteString("=== tuning fleet (from internal/obs fleet.* keys) ===\n")
	if h.Coordinator() {
		fmt.Fprintf(&b, "workers %d (%d lost)   shards %d/%d merged (%.0f%%), %d stolen\n",
			h.Workers, h.WorkersLost, h.ShardsDone, h.ShardsTotal, 100*h.Progress(), h.ShardsStolen)
		fmt.Fprintf(&b, "evals   merged %d, duplicate %d (%.0f%% overhead), resumed %d, local fallback %d\n",
			h.EvalsMerged, h.EvalsDuplicate, 100*h.DuplicateRate(), h.EvalsResumed, h.EvalsLocal)
		if h.ShardRTT.Count > 0 {
			fmt.Fprintf(&b, "shard rtt p50 %.1f ms, p95 %.1f ms, max %.1f ms (%d attempts)\n",
				h.ShardRTT.Quantile(0.5)/1e6, h.ShardRTT.Quantile(0.95)/1e6,
				float64(h.ShardRTT.Max)/1e6, h.ShardRTT.Count)
		}
	}
	if h.WorkerShards > 0 || h.WorkerEvals > 0 {
		fmt.Fprintf(&b, "worker  %d shard(s) served, %d eval(s) measured\n",
			h.WorkerShards, h.WorkerEvals)
	}
	if len(h.NetFaults) > 0 {
		classes := make([]string, 0, len(h.NetFaults))
		for c := range h.NetFaults {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s %d", c, h.NetFaults[c]))
		}
		fmt.Fprintf(&b, "net faults: %s\n", strings.Join(parts, ", "))
	}
	if h.ByzCrossChecked > 0 || h.ByzQuarantined > 0 {
		fmt.Fprintf(&b, "byzantine audit: %d cross-checked, %d divergent, %d quarantined, %d re-verified, %d corrected\n",
			h.ByzCrossChecked, h.ByzDivergent, h.ByzQuarantined, h.ByzReverified, h.ByzCorrected)
	}
	if len(h.Peers) > 0 {
		b.WriteString("peers:\n")
		for _, p := range h.Peers {
			status := "ok"
			switch {
			case p.Quarantined:
				status = "QUARANTINED"
			case p.Benched:
				status = "BENCHED"
			}
			fmt.Fprintf(&b, "   %-24s dispatched %-4d failed %-4d evals %-5d checked %-3d divergent %-3d %s\n",
				p.Name, p.Dispatched, p.Failed, p.Evals, p.CrossChecked, p.Divergent, status)
		}
	}
	if h.Degraded() {
		b.WriteString("distress:\n")
		if h.WorkersLost > 0 {
			fmt.Fprintf(&b, "   %d worker(s) benched after repeated failures\n", h.WorkersLost)
		}
		if h.ShardsRedispatched > 0 {
			fmt.Fprintf(&b, "   %d lease(s) expired or failed and were re-dispatched\n", h.ShardsRedispatched)
		}
		if h.EvalsLocal > 0 {
			fmt.Fprintf(&b, "   %d config(s) no batch asked for, evaluated locally\n", h.EvalsLocal)
		}
		if h.ByzQuarantined > 0 {
			fmt.Fprintf(&b, "   %d worker(s) quarantined for divergent costs; contributions re-verified\n", h.ByzQuarantined)
		}
	} else if h.Coordinator() {
		b.WriteString("no distress: no workers lost, no leases re-dispatched, table complete\n")
	}
	return b.String()
}
