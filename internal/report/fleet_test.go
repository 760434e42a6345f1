package report

import (
	"strings"
	"testing"

	"patty/internal/obs"
)

// The fleet table must render the hostile-network ledger (an injected
// fault under "injected.<class>"), the byzantine audit line, and a
// per-worker status column that singles out quarantined and benched
// peers.
func TestFleetTableHostileNetwork(t *testing.T) {
	out := FleetTable(fixture(t, "fleet-hostile"))
	mustContain(t, out,
		"net faults: drop 3, injected.corrupt 5, timeout 2",
		"byzantine audit: 7 cross-checked, 2 divergent, 1 quarantined, 4 re-verified, 3 corrected",
		"peers:",
		"QUARANTINED",
		"BENCHED",
		"1 worker(s) quarantined for divergent costs")
	// The healthy peer renders status "ok", and rows keep their order.
	var q, ben, okRow int
	for i, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "127.0.0.1-4713"):
			q = i
			if !strings.Contains(line, "QUARANTINED") {
				t.Errorf("liar row lacks QUARANTINED: %q", line)
			}
		case strings.Contains(line, "127.0.0.1-9000"):
			ben = i
			if !strings.Contains(line, "BENCHED") {
				t.Errorf("benched row lacks BENCHED: %q", line)
			}
		case strings.Contains(line, "127.0.0.1-9100"):
			okRow = i
			if !strings.HasSuffix(strings.TrimRight(line, " "), " ok") {
				t.Errorf("healthy row should end in ok: %q", line)
			}
		}
	}
	if !(q < ben && ben < okRow) {
		t.Errorf("peer rows out of order: %d %d %d\n%s", q, ben, okRow, out)
	}
}

// A snapshot with only hostile-network, byzantine and peer signal is
// still fleet signal: no coordinator lines, every family on its row, a
// peer named by its worker URL as given, and the liar as distress.
func TestFleetTableHostileNetworkOnly(t *testing.T) {
	out := FleetTable(fixture(t, "fleet-hostile-network-only"))
	mustContain(t, out,
		"net faults: drop 3, injected.corrupt 5, timeout 2\n",
		"byzantine audit: 7 cross-checked, 2 divergent, 1 quarantined, 4 re-verified, 3 corrected\n",
		"peers:\n   http://127.0.0.1:4713    dispatched 9    failed 1    evals 40    checked 6   divergent 2   QUARANTINED\n"+
			"   http://127.0.0.1:9000    dispatched 4    failed 0    evals 0     checked 0   divergent 0   BENCHED\n",
		"distress:\n   1 worker(s) quarantined")
	if strings.Contains(out, "workers ") || strings.Contains(out, "no distress") {
		t.Errorf("coordinator lines without coordinator signal:\n%s", out)
	}
}

// A quiet coordinator still renders the no-distress line and no
// hostile-network sections.
func TestFleetTableQuiet(t *testing.T) {
	out := FleetTable(fixture(t, "fleet-quiet"))
	mustContain(t, out, "no distress")
	for _, not := range []string{"net faults", "byzantine", "peers:"} {
		if strings.Contains(out, not) {
			t.Fatalf("unexpected %q section:\n%s", not, out)
		}
	}
}

// The section is present for coordinator, worker, network, peer or
// audit signal, and only then.
func TestFleetTablePresence(t *testing.T) {
	for name, fill := range map[string]func(c *obs.Collector){
		"workers":      func(c *obs.Collector) { c.Gauge("fleet.workers").Set(1) },
		"shards":       func(c *obs.Collector) { c.Gauge("fleet.shards.total").Set(1) },
		"worker shard": func(c *obs.Collector) { c.Counter("fleet.worker.shards").Inc() },
		"worker eval":  func(c *obs.Collector) { c.Counter("fleet.worker.evals").Inc() },
		"net fault":    func(c *obs.Collector) { c.CounterOf("fleet.net.faults", "drop").Inc() },
		"injected":     func(c *obs.Collector) { c.CounterOf("fleet.net.injected", "drop").Inc() },
		"peer":         func(c *obs.Collector) { c.GaugeOf("fleet.peer.benched", "w").Set(0) },
		"audit":        func(c *obs.Collector) { c.Counter("fleet.byzantine.crosschecked").Inc() },
	} {
		if FleetTable(snapshot(fill)) == "" {
			t.Errorf("%s: fleet section absent", name)
		}
	}
	for name, s := range map[string]obs.Snapshot{
		"pattern keys": {Counters: map[string]int64{"patterns.total": 3}},
		"merged only":  {Counters: map[string]int64{"fleet.evals.merged": 3}},
		"empty":        {},
	} {
		if out := FleetTable(s); out != "" {
			t.Errorf("%s: rendered %q", name, out)
		}
	}
	out := FleetTable(fixture(t, "fleet-worker"))
	mustContain(t, out, "worker  3 shard(s) served, 12 eval(s) measured")
	if strings.Contains(out, "distress") {
		t.Errorf("a worker's own counters read as distress:\n%s", out)
	}
}
