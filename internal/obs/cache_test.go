package obs

import (
	"reflect"
	"testing"
)

func TestAnalyzeCache(t *testing.T) {
	c := New()
	c.Counter("cache.hits").Add(30)
	c.Counter("cache.misses").Add(10)
	c.Counter("cache.inserts").Add(10)
	c.Counter("cache.evictions").Add(2)
	c.Gauge("cache.entries").Set(8)
	c.Gauge("cache.bytes").Set(4096)
	c.Gauge("cache.segments").Set(2)
	c.CounterOf("cache.tenant.hits", "alice").Add(20)
	c.CounterOf("cache.tenant.hits", "team.us-east").Add(10) // dotted tenant ids
	c.CounterOf("cache.tenant.hits", "eu.west").Add(3)
	c.CounterOf("cache.tenant.hits", "eu.west.done").Add(4)

	h, ok := AnalyzeCache(c.Snapshot())
	if !ok {
		t.Fatal("cache signal not detected")
	}
	if h.Hits != 30 || h.Misses != 10 || h.Inserts != 10 || h.Evictions != 2 {
		t.Fatalf("ledger wrong: %+v", h)
	}
	if h.Entries != 8 || h.Bytes != 4096 || h.Segments != 2 {
		t.Fatalf("gauges wrong: %+v", h)
	}
	if got := h.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	// Sorted by id; dotted ids are kept whole.
	want := []CacheTenantHits{{"alice", 20}, {"eu.west", 3}, {"eu.west.done", 4}, {"team.us-east", 10}}
	if !reflect.DeepEqual(h.TenantHits, want) {
		t.Fatalf("tenant hits: %+v, want %+v", h.TenantHits, want)
	}
	if h.Degraded() {
		t.Fatal("clean cache reported degraded")
	}
}

func TestAnalyzeCacheAbsent(t *testing.T) {
	c := New()
	c.Counter("jobs.submitted").Inc() // unrelated signal only
	if _, ok := AnalyzeCache(c.Snapshot()); ok {
		t.Fatal("cache signal detected in a snapshot without cache.* keys")
	}
}

func TestAnalyzeCacheDegraded(t *testing.T) {
	c := New()
	c.Counter("cache.corrupt").Inc()
	h, ok := AnalyzeCache(c.Snapshot())
	if !ok || !h.Degraded() {
		t.Fatalf("quarantined segment not surfaced: ok=%v h=%+v", ok, h)
	}
}
