package obs

import (
	"testing"
)

func TestAnalyzeTenants(t *testing.T) {
	c := New()
	c.CounterOf("jobs.tenant.submitted", "acme").Add(10)
	c.CounterOf("jobs.tenant.done", "acme").Add(7)
	c.CounterOf("jobs.tenant.failed", "acme").Add(1)
	c.CounterOf("jobs.tenant.canceled", "acme").Add(2)
	c.CounterOf("jobs.tenant.quota", "acme").Add(5)
	c.CounterOf("jobs.tenant.shed", "acme").Add(3)
	c.GaugeOf("jobs.tenant.queued", "acme").Set(4)
	c.HistogramOf("jobs.tenant.latency_ns", "acme").Record(1000)
	// Tenant ids containing dots, even ones ending in a field name, are
	// kept whole.
	c.CounterOf("jobs.tenant.done", "eu.west.prod").Add(2)
	c.CounterOf("jobs.tenant.done", "eu.west").Add(5)
	c.CounterOf("jobs.tenant.done", "eu.west.done").Add(6)
	// Non-tenant jobs.* keys must not leak in.
	c.Counter("jobs.submitted").Add(99)

	ths := AnalyzeTenants(c.Snapshot())
	if len(ths) != 4 {
		t.Fatalf("analyzed %d tenants, want 4: %+v", len(ths), ths)
	}
	acme := ths[0]
	if acme.Tenant != "acme" || acme.Submitted != 10 || acme.Done != 7 ||
		acme.Failed != 1 || acme.Canceled != 2 || acme.QuotaDenied != 5 ||
		acme.Shed != 3 || acme.Queued != 4 || acme.Latency.Count != 1 {
		t.Fatalf("acme digest: %+v", acme)
	}
	if got := acme.RefusalRate(); got < 0.44 || got > 0.45 { // 8/18
		t.Fatalf("acme refusal rate = %v", got)
	}
	for i, want := range []TenantHealth{
		{Tenant: "eu.west", Done: 5},
		{Tenant: "eu.west.done", Done: 6},
		{Tenant: "eu.west.prod", Done: 2},
	} {
		if got := ths[i+1]; got.Tenant != want.Tenant || got.Done != want.Done || got.Submitted != 0 {
			t.Fatalf("dotted tenant digest %d: %+v, want %+v", i+1, got, want)
		}
	}
}

func TestFairnessRatio(t *testing.T) {
	ths := []TenantHealth{
		{Tenant: "a", Done: 30},
		{Tenant: "b", Done: 20},
		{Tenant: "idle"}, // zero goodput is excluded, not divided by
	}
	if got := FairnessRatio(ths); got != 1.5 {
		t.Fatalf("fairness = %v, want 1.5", got)
	}
	if got := FairnessRatio(ths[:1]); got != 0 {
		t.Fatalf("single tenant fairness = %v, want 0", got)
	}
	if got := FairnessRatio(nil); got != 0 {
		t.Fatalf("empty fairness = %v, want 0", got)
	}
}

func TestAnalyzeServiceNewCounters(t *testing.T) {
	c := New()
	c.Counter("jobs.submitted").Add(3)
	c.Counter("jobs.quota_denied").Add(2)
	c.Counter("jobs.restored").Add(4)
	c.Counter("jobs.resubmitted").Add(1)
	c.Counter("jobs.journal.errors").Add(1)
	h, ok := AnalyzeService(c.Snapshot())
	if !ok {
		t.Fatal("service signal not detected")
	}
	if h.QuotaDenied != 2 || h.Restored != 4 || h.Resubmitted != 1 || h.JournalErrs != 1 {
		t.Fatalf("digest: %+v", h)
	}
	if !h.Degraded() {
		t.Fatal("journal errors must count as distress")
	}
}
