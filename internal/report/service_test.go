package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

func TestServiceTableCalm(t *testing.T) {
	out := ServiceTable(fixture(t, "service-calm"))
	mustContain(t, out, "queue", "workers 2", "submitted 3", "no distress")
}

func TestServiceTableDistress(t *testing.T) {
	out := ServiceTable(fixture(t, "service-distressed"))
	mustContain(t, out, "distress", "shed 2", "3 worker restart", "quarantined")
	if strings.Contains(out, "no distress") {
		t.Fatalf("degraded service rendered calm:\n%s", out)
	}
}

// The derived figures: queue fill, shed rate over all attempts, jobs
// pending, and the latency histogram's count.
func TestServiceTableLedger(t *testing.T) {
	out := ServiceTable(fixture(t, "service-pending"))
	mustContain(t, out,
		"queue   3/4 (75% full)   workers 2 (2 running)",
		"submitted 10, done 4, failed 1, canceled 1, pending 4",
		"shed 2 submission(s) (17% of attempts)", // 2 of 12
		"(submit->finish, 1 jobs)",
		"breaker: 1 config(s) quarantined now")
}

// A failed journal write is distress even with nothing shed, no
// crashes and the breaker closed.
func TestServiceTableJournalErrors(t *testing.T) {
	out := ServiceTable(fixture(t, "service-journal-errors"))
	if out == "" || strings.Contains(out, "no distress") {
		t.Fatalf("journal errors must render as distress:\n%s", out)
	}
	mustContain(t, out, "1 journal write(s) failed")
}

// Jobs recovered from the store and quota refusals share one line,
// printed only when one of them is non-zero.
func TestServiceTableRecovery(t *testing.T) {
	mustContain(t, ServiceTable(fixture(t, "service-journal-errors")),
		"recovery restored 4, resubmitted 1 from the store; 2 submission(s) denied by tenant quota")
	for _, key := range []string{"jobs.restored", "jobs.resubmitted", "jobs.quota_denied"} {
		out := ServiceTable(snapshot(func(c *obs.Collector) {
			c.Counter("jobs.submitted").Inc()
			c.Counter(key).Inc()
		}))
		mustContain(t, out, "recovery ")
	}
	if out := ServiceTable(fixture(t, "service-calm")); strings.Contains(out, "recovery") {
		t.Errorf("recovery line without a recovered or denied job:\n%s", out)
	}
}

// The section is present when the queue bound, the pool size, an
// admission or a shed submission is; a zero pool reads calm.
func TestServiceTablePresence(t *testing.T) {
	for _, key := range []string{"jobs.queue.cap", "jobs.workers"} {
		out := ServiceTable(snapshot(func(c *obs.Collector) { c.Gauge(key).Set(1) }))
		mustContain(t, out, "0% full", "pending 0", "no distress")
	}
	for _, key := range []string{"jobs.submitted", "jobs.shed"} {
		if ServiceTable(snapshot(func(c *obs.Collector) { c.Counter(key).Inc() })) == "" {
			t.Errorf("%s alone: service section absent", key)
		}
	}
	for name, s := range map[string]obs.Snapshot{
		"pattern keys and breaker only": fixture(t, "no-status-signal"),
		"empty":                         {},
	} {
		if out := ServiceTable(s); out != "" {
			t.Errorf("%s: rendered %q", name, out)
		}
	}
}
