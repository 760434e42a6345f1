package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/tuning"
)

// waitJobDone polls a job to its terminal state and fails the test if
// that state is not done.
func waitJobDone(t *testing.T, base, id string) jobs.Info {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=1", base, id))
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Status != jobs.StatusDone {
		t.Fatalf("job %s: %+v", id, info)
	}
	return info
}

// jobResultRaw fetches a finished job's result as its raw JSON bytes.
func jobResultRaw(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/result", base, id))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return got.Result
}

// TestServeCacheChaosKillRestart is the `make cachechaos` gate: a
// serving process with a content-addressed evaluation store is
// SIGKILLed mid-insert — duplicate jobs from two tenants streaming
// through the memoization path while a slowed tune search journals
// evaluations into the same store. The restarted server must recover
// the store (torn tail and all), answer a third tenant's duplicate job
// from it byte-identically, and converge the resubmitted search to the
// same best as an uninterrupted cache-free run.
func TestServeCacheChaosKillRestart(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	cacheDir := filepath.Join(t.TempDir(), "cas")
	ckptDir := t.TempDir()

	// Uninterrupted, cache-free reference for the search.
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	srv1, base1 := startServe(t, "-workers", "2",
		"-checkpoint-dir", ckptDir, "-cache-dir", cacheDir)

	// Seed the store with one finished job and keep its answer: the
	// post-restart duplicate must reproduce these exact bytes.
	seedID, code := postJobTenant(t, base1, "alpha", `{"kind":"study","seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("seed study submit: HTTP %d", code)
	}
	waitJobDone(t, base1, seedID)
	want := jobResultRaw(t, base1, seedID)
	if len(want) == 0 {
		t.Fatal("seed study job returned no result")
	}

	// Two tenants resubmitting duplicates in a loop: every iteration
	// either hits the store or races a fresh insert, so the SIGKILL
	// lands mid-insert with high probability.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"kind":"study","seed":%d}`, 7+i%3)
				req, err := http.NewRequest(http.MethodPost, base1+"/jobs", strings.NewReader(body))
				if err != nil {
					return
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // server killed mid-request
				}
				resp.Body.Close()
			}
		}(tenant)
	}

	// A slowed search journaling every evaluation into the store; kill
	// once it has measurable progress.
	if _, code := postJobTenant(t, base1, "alpha",
		`{"kind":"tune","algo":"tabu","budget":120,"fault_rate":10,"fault_seed":3,"eval_delay_ms":30}`); code != http.StatusAccepted {
		t.Fatalf("tune submit: HTTP %d", code)
	}
	waitForEvals(t, filepath.Join(ckptDir, journalName(jobRequest{Kind: "tune", tuneSpec: spec})), 3, 30*time.Second)
	if err := srv1.Process.Kill(); err != nil { // SIGKILL mid-insert
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	srv1.Wait()

	// Restart over the same store. Open recovers it — possibly printing
	// a repair banner — before the listen line, so everything below may
	// rely on the recovered state.
	srv2, base2 := startServe(t, "-workers", "2",
		"-checkpoint-dir", ckptDir, "-cache-dir", cacheDir,
		"-drain-timeout", "30s")

	// A third tenant resubmits the seeded job: answered from the store,
	// byte-identical to the pre-kill result, attributed to gamma.
	dupID, code := postJobTenant(t, base2, "gamma", `{"kind":"study","seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submit: HTTP %d", code)
	}
	waitJobDone(t, base2, dupID)
	if got := jobResultRaw(t, base2, dupID); string(got) != string(want) {
		t.Fatalf("cached duplicate diverged:\n got %s\nwant %s", got, want)
	}
	mresp, err := http.Get(base2 + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if snap.Counters["cache.hits"] == 0 {
		t.Fatal("restarted server recorded no cache hits")
	}
	if snap.CounterFamilies["cache.tenant.hits"]["gamma"] == 0 {
		t.Fatal("gamma's duplicate was not attributed as a tenant hit")
	}

	// The resubmitted search (no delay) converges to the reference best
	// — checkpoint resume plus store hits, never a wrong answer.
	tuneID, code := postJobTenant(t, base2, "beta",
		`{"kind":"tune","algo":"tabu","budget":120,"fault_rate":10,"fault_seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("tune resubmit: HTTP %d", code)
	}
	waitJobDone(t, base2, tuneID)
	var out tuneOutcome
	if err := json.Unmarshal(jobResultRaw(t, base2, tuneID), &out); err != nil {
		t.Fatal(err)
	}
	if tuning.AssignKey(out.Best) != tuning.AssignKey(ref.Best) || out.Cost != ref.Cost {
		t.Fatalf("post-restart best %v (%.0f) != reference %v (%.0f)",
			out.Best, out.Cost, ref.Best, ref.Cost)
	}

	// The cache digest renders on the human surface.
	sresp, err := http.Get(base2 + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	status, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(status), "evaluation cache") {
		t.Fatalf("/statusz lacks the cache digest:\n%s", status)
	}

	// SIGTERM drains the restarted server cleanly.
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Wait(); err != nil {
		t.Fatalf("SIGTERM drain must exit 0, got %v", err)
	}
}
