package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

func TestTenantTable(t *testing.T) {
	c := obs.New()
	c.CounterOf("jobs.tenant.submitted", "hog").Add(100)
	c.CounterOf("jobs.tenant.done", "hog").Add(40)
	c.CounterOf("jobs.tenant.quota", "hog").Add(60)
	c.CounterOf("jobs.tenant.submitted", "modest").Add(30)
	c.CounterOf("jobs.tenant.done", "modest").Add(30)
	out := TenantTable(obs.AnalyzeTenants(c.Snapshot()))
	for _, want := range []string{"tenant", "hog", "modest", "429s", "fairness", "1.33"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if got := TenantTable(nil); got != "" {
		t.Fatalf("empty table = %q", got)
	}
}
