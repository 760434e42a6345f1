package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

func TestTenantTable(t *testing.T) {
	out := TenantTable(fixture(t, "tenants-skewed"))
	mustContain(t, out, "tenant", "hog", "modest", "429s", "fairness", "1.33")
	if got := TenantTable(obs.Snapshot{}); got != "" {
		t.Fatalf("empty table = %q", got)
	}
}

// One row per tenant id seen in any jobs.tenant.* family, sorted by id;
// ids containing dots, even ones ending in a field name, are kept
// whole, and non-tenant jobs.* keys do not leak in.
func TestTenantTableRows(t *testing.T) {
	var rows [][]string
	for _, line := range strings.Split(TenantTable(fixture(t, "tenants-dotted")), "\n")[2:] {
		if f := strings.Fields(line); len(f) == 9 {
			rows = append(rows, f)
		}
	}
	want := [][]string{
		{"a-very-long-ten…", "1", "0", "0", "0", "0", "0", "0", "-"},
		{"acme", "10", "7", "1", "2", "5", "3", "4", "0.0"},
		{"eu.west", "0", "5", "0", "0", "0", "0", "0", "-"},
		{"eu.west.done", "0", "6", "0", "0", "0", "0", "0", "-"},
		{"eu.west.prod", "0", "2", "0", "0", "0", "0", "0", "-"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i := range want {
		if strings.Join(rows[i], " ") != strings.Join(want[i], " ") {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
	if out := TenantTable(fixture(t, "tenants-queued-only")); !strings.Contains(out, "idle") {
		t.Errorf("a queued gauge alone must give its tenant a row:\n%s", out)
	}
}

func TestFairnessRatio(t *testing.T) {
	done := func(goodput map[string]int64) obs.Snapshot {
		return snapshot(func(c *obs.Collector) {
			for id, n := range goodput {
				c.CounterOf("jobs.tenant.done", id).Add(n)
				c.CounterOf("jobs.tenant.submitted", id).Add(n + 5)
			}
		})
	}
	// Zero goodput is excluded, not divided by.
	if got := FairnessRatio(done(map[string]int64{"a": 30, "b": 20, "idle": 0})); got != 1.5 {
		t.Fatalf("fairness = %v, want 1.5", got)
	}
	if got := FairnessRatio(done(map[string]int64{"a": 30})); got != 0 {
		t.Fatalf("single tenant fairness = %v, want 0", got)
	}
	if got := FairnessRatio(obs.Snapshot{}); got != 0 {
		t.Fatalf("empty fairness = %v, want 0", got)
	}
}
