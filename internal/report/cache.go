package report

import (
	"fmt"
	"strings"

	"patty/internal/obs"
)

// Evaluation-cache metrics, published by internal/evalcache (the
// persistent content-addressed store shared by tune, fleet and serve):
//
//	cache.hits                counter  (lookups answered from the store)
//	cache.misses              counter  (lookups that fell through to measurement)
//	cache.inserts             counter  (entries appended: first write of a key)
//	cache.evictions           counter  (entries dropped by segment eviction)
//	cache.corrupt             counter  (segments quarantined during recovery)
//	cache.entries             gauge    (live entries in the index)
//	cache.bytes               gauge    (on-disk footprint across segments)
//	cache.segments            gauge    (segment files, incl. active)
//	cache.tenant.hits{tenant} counter  (per-tenant hit attribution)
//
// Like the jobs.* and fleet.* metrics, these live beside the pattern
// keys in one Collector; obs.Analyze skips them and CacheTable reads
// them.

// CacheTable renders the cache.* keys of s in the style of
// ServiceTable: the hit/miss ledger with the hit rate, the store
// footprint, per-tenant hit attribution sorted by tenant id, and —
// only when present — the damage line (quarantined segments) that
// tells an operator to run `patty cache verify`. It is "" when s holds
// no cache.* signal (no store was attached, or it saw no traffic; the
// byte gauge alone does not count).
func CacheTable(s obs.Snapshot) string {
	c, g := s.Counters, s.Gauges
	hits, misses, inserts := c["cache.hits"], c["cache.misses"], c["cache.inserts"]
	evictions, corrupt := c["cache.evictions"], c["cache.corrupt"]
	entries, segments := g["cache.entries"], g["cache.segments"]
	tenants := labels(nil, s.CounterFamilies, "cache.tenant.hits")
	if hits <= 0 && misses <= 0 && inserts <= 0 && evictions <= 0 && corrupt <= 0 &&
		entries <= 0 && segments <= 0 && len(tenants) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("=== evaluation cache (from internal/obs cache.* keys) ===\n")
	fmt.Fprintf(&b, "lookups %d hit / %d miss (%.0f%% hit rate), %d inserted, %d evicted\n",
		hits, misses, 100*ratio(hits, hits+misses), inserts, evictions)
	fmt.Fprintf(&b, "store   %d entr(ies) in %d segment(s), %s on disk\n",
		entries, segments, sizeOf(g["cache.bytes"]))
	if len(tenants) > 0 {
		parts := make([]string, 0, len(tenants))
		for _, id := range tenants {
			parts = append(parts, fmt.Sprintf("%s %d", clip(id, 16), s.CounterFamilies["cache.tenant.hits"][id]))
		}
		fmt.Fprintf(&b, "tenant hits: %s\n", strings.Join(parts, ", "))
	}
	if corrupt > 0 {
		fmt.Fprintf(&b, "DAMAGE: %d segment(s) quarantined during recovery — run `patty cache verify`\n", corrupt)
	}
	return b.String()
}

// sizeOf renders a byte count with a binary unit.
func sizeOf(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
