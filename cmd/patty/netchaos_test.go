package main

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"patty/internal/jobs"
	"patty/internal/ptest"
)

// TestCLINetChaosByzantine is the CLI half of the hostile-network gate:
// two real `patty worker` processes run with `-chaos gate` (their
// intakes throttle, delay and drop requests deterministically) beside
// one `-byzantine-rate 100` liar that answers fast, well-formed and
// wrong. The coordinator must quarantine the liar via cross-check,
// absorb the wire faults, and still produce the exact local result.
func TestCLINetChaosByzantine(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	spec := tuneSpec{Algo: "tabu", Budget: 120}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	_, honest1 := startWorkerProc(t, "-chaos", "gate")
	_, honest2 := startWorkerProc(t, "-chaos", "gate")
	_, liar := startWorkerProc(t, "-byzantine-rate", "100", "-byzantine-seed", "7")

	fspec := spec
	fspec.Workers = []string{honest1, honest2, liar}
	fspec.CrossCheck = 2
	fspec.LeaseTTLMs = 2000

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	out, err := runFleetTune(ctx, fspec)
	if err != nil {
		t.Fatalf("fleet run under chaos: %v", err)
	}
	if !reflect.DeepEqual(out.Best, ref.Best) || out.Cost != ref.Cost ||
		out.Evaluations != ref.Evaluations || !reflect.DeepEqual(out.Trace, ref.Trace) {
		t.Fatalf("chaos run diverged from local:\n got best %v cost %.0f evals %d\nwant best %v cost %.0f evals %d",
			out.Best, out.Cost, out.Evaluations, ref.Best, ref.Cost, ref.Evaluations)
	}
	st := out.Fleet
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar {
		t.Fatalf("quarantined = %v, want exactly the liar %s", st.ByzantineQuarantined, liar)
	}
	if st.Divergent < 1 || st.CrossChecked < 1 {
		t.Fatalf("audit never fired: %+v", st)
	}
	// The server-side injectors live in the worker processes, but their
	// faults arrive here classified: the gate plan's throttle class must
	// have been observed (429 + Retry-After honored, not counted as a
	// worker failure).
	if st.NetFaults["throttle"] < 1 {
		t.Fatalf("no throttle observed through the chaos intake: %v", st.NetFaults)
	}
	for _, h := range st.Health {
		if h.Worker == liar && !h.Quarantined {
			t.Fatalf("liar's health row not quarantined: %+v", h)
		}
		if h.Worker != liar && h.Quarantined {
			t.Fatalf("honest worker quarantined: %+v", h)
		}
	}
}

// TestCLITuneNetChaosFlags drives `patty tune` itself — flag parsing
// included — with a client-side latency-only chaos plan, an explicit
// cross-check width and lease TTL, against one in-process worker.
func TestCLITuneNetChaosFlags(t *testing.T) {
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	url, stop, err := startInprocWorker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	before := metrics.Snapshot().CounterFamilies["fleet.net.injected"]["latency"]
	err = cmdTune(context.Background(), []string{
		"-algo", "linear", "-budget", "60",
		"-workers", url,
		"-net-chaos", `{"seed":1,"latency_rate":1,"latency_ms":1}`,
		"-cross-check", "2",
		"-lease-ttl", "5s",
	})
	if err != nil {
		t.Fatalf("tune -net-chaos: %v", err)
	}
	after := metrics.Snapshot().CounterFamilies["fleet.net.injected"]["latency"]
	if after <= before {
		t.Fatalf("client-side injector never fired latency (counter %d -> %d)", before, after)
	}
}

// TestCLIChaosPlanParsing pins the flag grammar: empty, "gate", valid
// JSON, and garbage.
func TestCLIChaosPlanParsing(t *testing.T) {
	if ps, err := parseChaosPlan(""); err != nil || ps != nil {
		t.Fatalf("empty: %v %v", ps, err)
	}
	ps, err := parseChaosPlan("gate")
	if err != nil || ps == nil || ps.ThrottleRate <= 0 {
		t.Fatalf("gate: %+v %v", ps, err)
	}
	ps, err = parseChaosPlan(`{"seed":3,"drop_rate":0.5}`)
	if err != nil || ps.Seed != 3 || ps.DropRate != 0.5 {
		t.Fatalf("json: %+v %v", ps, err)
	}
	if _, err := parseChaosPlan("{nope"); err == nil {
		t.Fatal("garbage plan accepted")
	}
	if _, err := parseChaosPlan(badChaosPlan); err == nil || !strings.Contains(err.Error(), "drop_rate") {
		t.Fatalf("out-of-range rate: err %v, want one naming drop_rate", err)
	}
}

// badChaosPlan gives a percent where a rate in [0,1] belongs.
const badChaosPlan = `{"seed":1,"drop_rate":5}`

// TestServeRejectsBadChaosPlan: serve admission checks a tune job's
// net_chaos plan like the CLI flags do.
func TestServeRejectsBadChaosPlan(t *testing.T) {
	_, ts := newTestServer(t, jobs.Options{Workers: 1})
	if _, code := postJob(t, ts.URL, `{"kind":"tune","net_chaos":`+badChaosPlan+`}`); code != http.StatusBadRequest {
		t.Fatalf("tune job with drop_rate 5: HTTP %d, want 400", code)
	}
}
