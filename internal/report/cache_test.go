package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

func TestCacheTable(t *testing.T) {
	out := CacheTable(fixture(t, "cache"))
	mustContain(t, out,
		"evaluation cache",
		"75 hit / 25 miss (75% hit rate)",
		"22 entr(ies) in 4 segment(s), 3.0 MiB",
		"tenant hits: alice 50, bob 25")
	if strings.Contains(out, "DAMAGE") {
		t.Errorf("clean cache rendered damage line:\n%s", out)
	}
	mustContain(t, CacheTable(fixture(t, "cache-damaged")),
		"DAMAGE: 1 segment(s) quarantined", "patty cache verify")
}

// Tenant hits sort by id, and dotted ids are kept whole.
func TestCacheTableTenantHits(t *testing.T) {
	mustContain(t, CacheTable(fixture(t, "cache-dotted-tenants")),
		"30 hit / 10 miss (75% hit rate)",
		"tenant hits: alice 20, eu.west 3, eu.west.done 4, team.us-east 10\n")
}

// The section is present for any ledger count, entry, segment or
// tenant hit, and not for unrelated keys or the byte gauge alone.
func TestCacheTablePresence(t *testing.T) {
	for name, s := range map[string]obs.Snapshot{
		"unrelated":  {Counters: map[string]int64{"jobs.submitted": 1}},
		"bytes only": {Gauges: map[string]int64{"cache.bytes": 4096}},
		"empty":      {},
	} {
		if out := CacheTable(s); out != "" {
			t.Errorf("%s: rendered %q", name, out)
		}
	}
	for _, key := range []string{"cache.hits", "cache.misses", "cache.inserts", "cache.evictions", "cache.corrupt"} {
		if CacheTable(snapshot(func(c *obs.Collector) { c.Counter(key).Inc() })) == "" {
			t.Errorf("%s alone: cache section absent", key)
		}
	}
	for _, key := range []string{"cache.entries", "cache.segments"} {
		if CacheTable(snapshot(func(c *obs.Collector) { c.Gauge(key).Set(1) })) == "" {
			t.Errorf("%s alone: cache section absent", key)
		}
	}
	if CacheTable(snapshot(func(c *obs.Collector) { c.CounterOf("cache.tenant.hits", "a").Inc() })) == "" {
		t.Error("a tenant hit alone: cache section absent")
	}
}

// A segment quarantined during recovery surfaces as damage, also when
// the store saw no other traffic.
func TestCacheTableDamaged(t *testing.T) {
	mustContain(t, CacheTable(fixture(t, "cache-corrupt-only")),
		"0 hit / 0 miss (0% hit rate)",
		"DAMAGE: 1 segment(s) quarantined during recovery — run `patty cache verify`")
}
