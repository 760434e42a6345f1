package obs

import "sort"

// Evaluation-cache metrics, published by internal/evalcache
// (the persistent content-addressed store shared by tune, fleet and
// serve):
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
// keys in one Collector; Analyze skips them and AnalyzeCache digests
// them.

// CacheHealth is the digest of the cache.* keys in a Snapshot, feeding
// report.CacheTable and the /statusz pages of serve and worker.
type CacheHealth struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Inserts   int64 `json:"inserts"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`

	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
	Segments int64 `json:"segments"`

	// TenantHits attributes hits per tenant id, sorted by id.
	TenantHits []CacheTenantHits `json:"tenant_hits,omitempty"`
}

// CacheTenantHits is one tenant's share of the cache hits.
type CacheTenantHits struct {
	Tenant string `json:"tenant"`
	Hits   int64  `json:"hits"`
}

// HitRate is the fraction of lookups answered from the store, in
// [0,1]; 0 when the cache saw no traffic.
func (h CacheHealth) HitRate() float64 {
	total := h.Hits + h.Misses
	if total == 0 {
		return 0
	}
	return float64(h.Hits) / float64(total)
}

// Degraded reports whether recovery quarantined damage — an operator
// should run `patty cache verify` (and gc once satisfied).
func (h CacheHealth) Degraded() bool { return h.Corrupt > 0 }

// AnalyzeCache extracts the cache digest from a snapshot. ok is false
// when the snapshot holds no cache.* signal at all (no store was
// attached, or it saw no traffic).
func AnalyzeCache(s Snapshot) (h CacheHealth, ok bool) {
	h = CacheHealth{
		Hits:      s.Counters["cache.hits"],
		Misses:    s.Counters["cache.misses"],
		Inserts:   s.Counters["cache.inserts"],
		Evictions: s.Counters["cache.evictions"],
		Corrupt:   s.Counters["cache.corrupt"],
		Entries:   s.Gauges["cache.entries"],
		Bytes:     s.Gauges["cache.bytes"],
		Segments:  s.Gauges["cache.segments"],
	}
	for id, v := range s.CounterFamilies["cache.tenant.hits"] {
		h.TenantHits = append(h.TenantHits, CacheTenantHits{Tenant: id, Hits: v})
	}
	sort.Slice(h.TenantHits, func(i, j int) bool { return h.TenantHits[i].Tenant < h.TenantHits[j].Tenant })
	ok = h.Hits > 0 || h.Misses > 0 || h.Inserts > 0 || h.Evictions > 0 ||
		h.Corrupt > 0 || h.Entries > 0 || h.Segments > 0 || len(h.TenantHits) > 0
	return h, ok
}
