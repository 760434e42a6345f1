package report

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"patty/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/status.golden")

// statusFixtures are the snapshots the status golden renders: a calm
// and a distressed service, tenant ledgers (dotted ids among them), a
// hostile network seen by a coordinator and on its own, a quiet and a
// distressed fleet, a worker's own counters, a healthy and a damaged
// cache, a snapshot with no status signal, and one with every section.
func statusFixtures() []struct {
	name string
	fill func(c *obs.Collector)
} {
	calmService := func(c *obs.Collector) {
		c.Gauge("jobs.queue.cap").Set(16)
		c.Gauge("jobs.workers").Set(2)
		c.Counter("jobs.submitted").Add(3)
		c.Counter("jobs.done").Add(3)
	}
	skewedTenants := func(c *obs.Collector) {
		c.CounterOf("jobs.tenant.submitted", "hog").Add(100)
		c.CounterOf("jobs.tenant.done", "hog").Add(40)
		c.CounterOf("jobs.tenant.quota", "hog").Add(60)
		c.CounterOf("jobs.tenant.submitted", "modest").Add(30)
		c.CounterOf("jobs.tenant.done", "modest").Add(30)
	}
	hostileCoordinator := func(c *obs.Collector) {
		c.Gauge("fleet.workers").Set(3)
		c.Gauge("fleet.shards.total").Set(10)
		c.Counter("fleet.shards.done").Add(10)
		c.Counter("fleet.evals.merged").Add(18)
		c.CounterOf("fleet.net.faults", "drop").Add(3)
		c.CounterOf("fleet.net.faults", "timeout").Add(2)
		c.CounterOf("fleet.net.injected", "corrupt").Add(5)
		c.Counter("fleet.byzantine.crosschecked").Add(7)
		c.Counter("fleet.byzantine.divergent").Add(2)
		c.Counter("fleet.byzantine.quarantined").Add(1)
		c.Counter("fleet.byzantine.reverified").Add(4)
		c.Counter("fleet.byzantine.corrected").Add(3)
		for _, p := range []struct {
			name                                        string
			dispatched, failed, evals, checked, diverge int64
			quarantined, benched                        int64
		}{
			{"127.0.0.1-4713", 9, 1, 40, 6, 2, 1, 0},
			{"127.0.0.1-9000", 4, 0, 0, 0, 0, 0, 1},
			{"127.0.0.1-9100", 5, 0, 30, 4, 0, 0, 0},
		} {
			c.CounterOf("fleet.peer.dispatched", p.name).Add(p.dispatched)
			c.CounterOf("fleet.peer.failed", p.name).Add(p.failed)
			c.CounterOf("fleet.peer.evals", p.name).Add(p.evals)
			c.CounterOf("fleet.peer.crosschecked", p.name).Add(p.checked)
			c.CounterOf("fleet.peer.divergent", p.name).Add(p.diverge)
			c.GaugeOf("fleet.peer.quarantined", p.name).Set(p.quarantined)
			c.GaugeOf("fleet.peer.benched", p.name).Set(p.benched)
		}
	}
	cache := func(c *obs.Collector) {
		c.Counter("cache.hits").Add(75)
		c.Counter("cache.misses").Add(25)
		c.Counter("cache.inserts").Add(25)
		c.Counter("cache.evictions").Add(3)
		c.Gauge("cache.entries").Set(22)
		c.Gauge("cache.bytes").Set(3 << 20)
		c.Gauge("cache.segments").Set(4)
		c.CounterOf("cache.tenant.hits", "alice").Add(50)
		c.CounterOf("cache.tenant.hits", "bob").Add(25)
	}
	return []struct {
		name string
		fill func(c *obs.Collector)
	}{
		{"service-calm", calmService},
		{"service-distressed", func(c *obs.Collector) {
			c.Gauge("jobs.queue.cap").Set(4)
			c.Gauge("jobs.queue.depth").Set(4)
			c.Gauge("jobs.running").Set(1)
			c.Gauge("jobs.workers").Set(1)
			c.Counter("jobs.submitted").Add(8)
			c.Counter("jobs.shed").Add(2)
			c.Counter("jobs.done").Add(5)
			c.Counter("jobs.failed").Add(2)
			c.Counter("jobs.canceled").Add(1)
			c.Counter("jobs.worker.restarts").Add(3)
			c.Counter("jobs.breaker.trips").Add(1)
			c.Counter("jobs.breaker.shortcircuits").Add(4)
			c.Gauge("jobs.breaker.open").Set(1)
			for _, ns := range []int64{900_000, 1_500_000, 2_000_000, 7_000_000, 30_000_000} {
				c.Histogram("jobs.latency_ns").Record(ns)
			}
		}},
		{"service-pending", func(c *obs.Collector) {
			c.Gauge("jobs.queue.depth").Set(3)
			c.Gauge("jobs.queue.cap").Set(4)
			c.Gauge("jobs.running").Set(2)
			c.Gauge("jobs.workers").Set(2)
			c.Counter("jobs.submitted").Add(10)
			c.Counter("jobs.shed").Add(2)
			c.Counter("jobs.done").Add(4)
			c.Counter("jobs.failed").Add(1)
			c.Counter("jobs.canceled").Add(1)
			c.Counter("jobs.worker.restarts").Add(1)
			c.Gauge("jobs.breaker.open").Set(1)
			c.Histogram("jobs.latency_ns").Record(1000)
		}},
		{"service-journal-errors", func(c *obs.Collector) {
			c.Counter("jobs.submitted").Add(3)
			c.Counter("jobs.quota_denied").Add(2)
			c.Counter("jobs.restored").Add(4)
			c.Counter("jobs.resubmitted").Add(1)
			c.Counter("jobs.journal.errors").Add(1)
		}},
		{"service-shed-only", func(c *obs.Collector) { c.Counter("jobs.shed").Add(1) }},
		{"tenants-skewed", skewedTenants},
		{"tenants-dotted", func(c *obs.Collector) {
			c.CounterOf("jobs.tenant.submitted", "acme").Add(10)
			c.CounterOf("jobs.tenant.done", "acme").Add(7)
			c.CounterOf("jobs.tenant.failed", "acme").Add(1)
			c.CounterOf("jobs.tenant.canceled", "acme").Add(2)
			c.CounterOf("jobs.tenant.quota", "acme").Add(5)
			c.CounterOf("jobs.tenant.shed", "acme").Add(3)
			c.GaugeOf("jobs.tenant.queued", "acme").Set(4)
			c.HistogramOf("jobs.tenant.latency_ns", "acme").Record(1000)
			c.CounterOf("jobs.tenant.done", "eu.west.prod").Add(2)
			c.CounterOf("jobs.tenant.done", "eu.west").Add(5)
			c.CounterOf("jobs.tenant.done", "eu.west.done").Add(6)
			c.CounterOf("jobs.tenant.submitted", "a-very-long-tenant-identifier").Add(1)
			c.Counter("jobs.submitted").Add(99)
		}},
		{"tenants-queued-only", func(c *obs.Collector) { c.GaugeOf("jobs.tenant.queued", "idle").Set(0) }},
		{"fleet-hostile", hostileCoordinator},
		{"fleet-hostile-network-only", func(c *obs.Collector) {
			const liar, benched = "http://127.0.0.1:4713", "http://127.0.0.1:9000"
			c.Counter("fleet.byzantine.crosschecked").Add(7)
			c.Counter("fleet.byzantine.divergent").Add(2)
			c.Counter("fleet.byzantine.quarantined").Add(1)
			c.Counter("fleet.byzantine.reverified").Add(4)
			c.Counter("fleet.byzantine.corrected").Add(3)
			c.CounterOf("fleet.net.faults", "drop").Add(3)
			c.CounterOf("fleet.net.faults", "timeout").Add(2)
			c.CounterOf("fleet.net.injected", "corrupt").Add(5)
			c.CounterOf("fleet.peer.dispatched", liar).Add(9)
			c.CounterOf("fleet.peer.dispatched", benched).Add(4)
			c.CounterOf("fleet.peer.failed", liar).Add(1)
			c.CounterOf("fleet.peer.evals", liar).Add(40)
			c.CounterOf("fleet.peer.crosschecked", liar).Add(6)
			c.CounterOf("fleet.peer.divergent", liar).Add(2)
			c.GaugeOf("fleet.peer.quarantined", liar).Set(1)
			c.GaugeOf("fleet.peer.benched", benched).Set(1)
		}},
		{"fleet-quiet", func(c *obs.Collector) {
			c.Gauge("fleet.workers").Set(2)
			c.Gauge("fleet.shards.total").Set(4)
			c.Counter("fleet.shards.done").Add(4)
			c.Counter("fleet.evals.merged").Add(9)
		}},
		{"fleet-distressed", func(c *obs.Collector) {
			c.Gauge("fleet.workers").Set(3)
			c.Counter("fleet.workers.lost").Add(1)
			c.Gauge("fleet.shards.total").Set(8)
			c.Counter("fleet.shards.done").Add(9)
			c.Counter("fleet.shards.redispatched").Add(2)
			c.Counter("fleet.shards.stolen").Add(1)
			c.Counter("fleet.evals.merged").Add(30)
			c.Counter("fleet.evals.duplicate").Add(10)
			c.Counter("fleet.evals.local").Add(1)
			c.Counter("fleet.evals.resumed").Add(2)
			for _, ns := range []int64{4_000_000, 5_000_000, 6_000_000, 40_000_000} {
				c.Histogram("fleet.shard.rtt_ns").Record(ns)
			}
		}},
		{"fleet-worker", func(c *obs.Collector) {
			c.Counter("fleet.worker.shards").Add(3)
			c.Counter("fleet.worker.evals").Add(12)
		}},
		{"cache", cache},
		{"cache-damaged", func(c *obs.Collector) {
			cache(c)
			c.Counter("cache.corrupt").Add(1)
		}},
		{"cache-dotted-tenants", func(c *obs.Collector) {
			c.Counter("cache.hits").Add(30)
			c.Counter("cache.misses").Add(10)
			c.Counter("cache.inserts").Add(10)
			c.Counter("cache.evictions").Add(2)
			c.Gauge("cache.entries").Set(8)
			c.Gauge("cache.bytes").Set(4096)
			c.Gauge("cache.segments").Set(2)
			c.CounterOf("cache.tenant.hits", "alice").Add(20)
			c.CounterOf("cache.tenant.hits", "team.us-east").Add(10)
			c.CounterOf("cache.tenant.hits", "eu.west").Add(3)
			c.CounterOf("cache.tenant.hits", "eu.west.done").Add(4)
		}},
		{"cache-corrupt-only", func(c *obs.Collector) { c.Counter("cache.corrupt").Inc() }},
		{"cache-small", func(c *obs.Collector) {
			c.Counter("cache.misses").Add(1)
			c.Gauge("cache.bytes").Set(700)
		}},
		{"no-status-signal", func(c *obs.Collector) {
			c.Counter("pipeline.video.wall_ns").Add(5)
			c.Counter("jobs.breaker.trips").Add(2)
			c.Gauge("jobs.breaker.open").Set(1)
			c.Gauge("cache.bytes").Set(4096)
		}},
		{"every-section", func(c *obs.Collector) {
			cache(c)
			hostileCoordinator(c)
			skewedTenants(c)
			calmService(c)
		}},
	}
}

// TestStatusGolden pins the status tables byte for byte on every
// fixture; regenerate only with -update, after a change meant to alter
// what an operator reads.
func TestStatusGolden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range statusFixtures() {
		c := obs.New()
		f.fill(c)
		fmt.Fprintf(&got, "## %s\n%s", f.name, Status(c.Snapshot()))
	}
	path := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("status tables differ from %s:\n%s", path, got.String())
	}
}

// fixture returns the snapshot of the named status fixture.
func fixture(t *testing.T, name string) obs.Snapshot {
	t.Helper()
	for _, f := range statusFixtures() {
		if f.name == name {
			c := obs.New()
			f.fill(c)
			return c.Snapshot()
		}
	}
	t.Fatalf("no status fixture %q", name)
	return obs.Snapshot{}
}

// snapshot fills a fresh collector and returns its snapshot.
func snapshot(fill func(c *obs.Collector)) obs.Snapshot {
	c := obs.New()
	fill(c)
	return c.Snapshot()
}

// mustContain fails t for each of wants that out lacks.
func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestStatusOrder: every section present renders once, in the order
// service, tenants, fleet, cache; a snapshot without status signal
// renders nothing.
func TestStatusOrder(t *testing.T) {
	out := Status(fixture(t, "every-section"))
	last := -1
	for _, header := range []string{"=== job service", "=== tenants", "=== tuning fleet", "=== evaluation cache"} {
		i := strings.Index(out, header)
		if i <= last || strings.Count(out, header) != 1 {
			t.Fatalf("section %q out of order or repeated:\n%s", header, out)
		}
		last = i
	}
	if out := Status(fixture(t, "no-status-signal")); out != "" {
		t.Fatalf("no status signal rendered %q", out)
	}
	if out := Status(obs.Snapshot{}); out != "" {
		t.Fatalf("empty snapshot rendered %q", out)
	}
}
