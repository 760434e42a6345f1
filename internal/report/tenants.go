package report

import (
	"fmt"
	"slices"
	"strings"

	"patty/internal/obs"
)

// Tenant-layer metric families, published by internal/jobs and
// labelled by the tenant id as given:
//
//	jobs.tenant.submitted{tenant}   counter  (admitted jobs)
//	jobs.tenant.done{tenant}        counter
//	jobs.tenant.failed{tenant}      counter
//	jobs.tenant.canceled{tenant}    counter
//	jobs.tenant.shed{tenant}        counter  (refused: shared queue full)
//	jobs.tenant.quota{tenant}       counter  (refused: token bucket empty)
//	jobs.tenant.queued{tenant}      gauge    (jobs waiting in this tenant's FIFO)
//	jobs.tenant.latency_ns{tenant}  histogram (submit -> terminal)

// TenantTable renders the jobs.tenant.* families of s as a fixed-width
// table: one row per tenant id seen in any of them, sorted by id, with
// its ledger, refusals split by cause (quota vs shed — the 429/503
// distinction), queue occupancy and latency, plus a fairness summary
// line. It is "" when s holds no tenant series.
func TenantTable(s obs.Snapshot) string {
	cf := s.CounterFamilies
	ids := labels(nil, cf, "jobs.tenant.submitted", "jobs.tenant.done", "jobs.tenant.failed",
		"jobs.tenant.canceled", "jobs.tenant.shed", "jobs.tenant.quota")
	ids = labels(ids, s.GaugeFamilies, "jobs.tenant.queued")
	ids = labels(ids, s.HistogramFamilies, "jobs.tenant.latency_ns")
	if len(ids) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("=== tenants (from internal/obs jobs.tenant.* keys) ===\n")
	fmt.Fprintf(&b, "%-16s %9s %8s %7s %8s %6s %6s %7s %10s\n",
		"tenant", "submitted", "done", "failed", "canceled", "429s", "shed", "queued", "p95 ms")
	for _, id := range ids {
		p95 := "-"
		if lat := s.HistogramFamilies["jobs.tenant.latency_ns"][id]; lat.Count > 0 {
			p95 = fmt.Sprintf("%.1f", lat.Quantile(0.95)/1e6)
		}
		fmt.Fprintf(&b, "%-16s %9d %8d %7d %8d %6d %6d %7d %10s\n",
			clip(id, 16), cf["jobs.tenant.submitted"][id], cf["jobs.tenant.done"][id],
			cf["jobs.tenant.failed"][id], cf["jobs.tenant.canceled"][id], cf["jobs.tenant.quota"][id],
			cf["jobs.tenant.shed"][id], s.GaugeFamilies["jobs.tenant.queued"][id], p95)
	}
	if r := FairnessRatio(s); r > 0 {
		fmt.Fprintf(&b, "fairness: max/min goodput = %.2f (1.00 is perfect; gate is <= 2.00)\n", r)
	}
	return b.String()
}

// FairnessRatio is the max/min goodput (jobs.tenant.done) across the
// tenants of s that completed at least one job — 1.0 is perfect
// fairness, and the serve-chaos gate (cmd/patty's
// TestServeTenantFairnessUnderSkew) requires <= 2.0 when a hog runs
// five times each other tenant's clients at equal weights. Returns 0
// when fewer than two tenants have goodput.
func FairnessRatio(s obs.Snapshot) float64 {
	var lo, hi int64 = -1, 0
	n := 0
	for _, done := range s.CounterFamilies["jobs.tenant.done"] {
		if done <= 0 {
			continue
		}
		n++
		if lo < 0 || done < lo {
			lo = done
		}
		hi = max(hi, done)
	}
	if n < 2 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// labels adds to ids the label values of the named families in fams
// and returns the union, sorted and without repeats.
func labels[V any](ids []string, fams map[string]map[string]V, names ...string) []string {
	for _, name := range names {
		for v := range fams[name] {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// clip truncates s to at most n runes with an ellipsis.
func clip(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n-1]) + "…"
}
