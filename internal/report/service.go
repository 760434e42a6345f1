package report

import (
	"fmt"
	"strings"

	"patty/internal/obs"
)

// Service-layer metric key grammar, published by internal/jobs:
//
//	jobs.queue.depth           gauge    (instantaneous admission queue)
//	jobs.queue.cap             gauge    (admission queue bound)
//	jobs.running               gauge    (jobs in flight)
//	jobs.workers               gauge    (worker-pool size)
//	jobs.submitted             counter  (admitted jobs)
//	jobs.shed                  counter  (submissions refused: overload)
//	jobs.quota_denied          counter  (submissions refused: tenant over quota)
//	jobs.restored              counter  (terminal jobs recovered from the store)
//	jobs.resubmitted           counter  (unfinished jobs re-enqueued from the store)
//	jobs.journal.errors        counter  (advisory journal writes that failed)
//	jobs.done                  counter
//	jobs.failed                counter
//	jobs.canceled              counter
//	jobs.worker.restarts       counter  (supervisor restarts after crash)
//	jobs.latency_ns            histogram (submit -> terminal)
//	jobs.run_ns                histogram (start -> terminal)
//	jobs.breaker.trips         counter  (configs newly quarantined)
//	jobs.breaker.shortcircuits counter  (calls refused while quarantined)
//	jobs.breaker.open          gauge    (currently quarantined configs)
//
// The keys live beside the pattern keys in one Collector; obs.Analyze
// skips them (no pattern kind prefix) and ServiceTable reads them.

// Status renders every status section whose metrics s holds, in the
// order service, tenants, fleet, cache. It is the one body of the
// /statusz pages of `patty serve` and `patty worker`, of `patty tune`'s
// fleet and cache report and of `patty cache stats`.
func Status(s obs.Snapshot) string {
	return ServiceTable(s) + TenantTable(s) + FleetTable(s) + CacheTable(s)
}

// ServiceTable renders the jobs.* keys of s the way BottleneckTable
// renders the pattern layer: one queue/worker summary line, the job
// ledger, the jobs recovered from the store and the submissions a
// tenant quota denied (only when one of them is non-zero), end-to-end
// latency quantiles, and — only when present — the distress signals
// (shed load, worker restarts, quarantined configurations, failed
// journal writes). It is "" when s holds no jobs.* signal (the
// collector never served jobs).
func ServiceTable(s obs.Snapshot) string {
	c, g := s.Counters, s.Gauges
	depth, capacity, workers := g["jobs.queue.depth"], g["jobs.queue.cap"], g["jobs.workers"]
	submitted, shed := c["jobs.submitted"], c["jobs.shed"]
	if capacity <= 0 && workers <= 0 && submitted <= 0 && shed <= 0 {
		return ""
	}
	done, failed, canceled := c["jobs.done"], c["jobs.failed"], c["jobs.canceled"]
	restarts, breakerOpen, trips := c["jobs.worker.restarts"], g["jobs.breaker.open"], c["jobs.breaker.trips"]
	restored, resubmitted, denied := c["jobs.restored"], c["jobs.resubmitted"], c["jobs.quota_denied"]
	journalErrs := c["jobs.journal.errors"]

	var b strings.Builder
	b.WriteString("=== job service (from internal/obs jobs.* keys) ===\n")
	fmt.Fprintf(&b, "queue   %d/%d (%.0f%% full)   workers %d (%d running)\n",
		depth, capacity, 100*ratio(depth, capacity), workers, g["jobs.running"])
	fmt.Fprintf(&b, "jobs    submitted %d, done %d, failed %d, canceled %d, pending %d\n",
		submitted, done, failed, canceled, max(submitted-done-failed-canceled, 0))
	if restored > 0 || resubmitted > 0 || denied > 0 {
		fmt.Fprintf(&b, "recovery restored %d, resubmitted %d from the store; %d submission(s) denied by tenant quota\n",
			restored, resubmitted, denied)
	}
	if lat := s.Histograms["jobs.latency_ns"]; lat.Count > 0 {
		fmt.Fprintf(&b, "latency p50 %.1f ms, p95 %.1f ms, max %.1f ms (submit->finish, %d jobs)\n",
			lat.Quantile(0.5)/1e6, lat.Quantile(0.95)/1e6, float64(lat.Max)/1e6, lat.Count)
	}
	if shed <= 0 && restarts <= 0 && breakerOpen <= 0 && journalErrs <= 0 {
		b.WriteString("no distress: nothing shed, no worker crashes, breaker closed\n")
		return b.String()
	}
	b.WriteString("distress:\n")
	if shed > 0 {
		fmt.Fprintf(&b, "   shed %d submission(s) (%.0f%% of attempts) — queue overloaded\n",
			shed, 100*ratio(shed, submitted+shed))
	}
	if restarts > 0 {
		fmt.Fprintf(&b, "   %d worker restart(s) after job panics\n", restarts)
	}
	if breakerOpen > 0 || trips > 0 {
		fmt.Fprintf(&b, "   breaker: %d config(s) quarantined now, %d trip(s), %d call(s) short-circuited\n",
			breakerOpen, trips, c["jobs.breaker.shortcircuits"])
	}
	if journalErrs > 0 {
		fmt.Fprintf(&b, "   %d journal write(s) failed — a restart may re-run finished jobs\n", journalErrs)
	}
	return b.String()
}

// ratio is part/whole, or 0 when whole is not positive.
func ratio(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
