package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/tuning"
)

// postJobTenant submits a job body under a tenant id.
func postJobTenant(t *testing.T, base, tenant, body string) (string, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, resp.StatusCode
}

// TestServeTrafficChaosRecovery is the `make serve-chaos` gate: a
// durable server (-store-dir) under concurrent multi-tenant bench
// traffic plus one checkpointed tune search is SIGKILLed mid-traffic.
// A restarted server on the same directories must recover every
// acknowledged job exactly once — finished jobs restore with their
// journaled results and never re-run, the interrupted tune job resumes
// from its journal to the same best as an uninterrupted run, and the
// tenant identity and accepted order of the ledger survive.
func TestServeTrafficChaosRecovery(t *testing.T) {
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	storeDir := t.TempDir()
	ckptDir := t.TempDir()
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	srv1, base1 := startServe(t, "-workers", "2",
		"-checkpoint-dir", ckptDir, "-store-dir", storeDir)
	tuneID, code := postJob(t, base1,
		`{"kind":"tune","algo":"tabu","budget":120,"fault_rate":10,"fault_seed":3,"eval_delay_ms":30}`)
	if code != http.StatusAccepted {
		t.Fatalf("tune submit: HTTP %d", code)
	}

	// Concurrent bench traffic from two tenants. Only 202-acknowledged
	// ids are recorded: an acknowledgement means the acceptance hit the
	// WAL (fsynced) before the response was written, so each of these
	// must survive the kill.
	acked := make(map[string]string) // id -> tenant
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "alpha", "beta", "beta"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodPost, base1+"/jobs",
					strings.NewReader(`{"kind":"bench","sleep_ms":3}`))
				if err != nil {
					return
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // server killed mid-request: not acknowledged
				}
				var out struct {
					ID string `json:"id"`
				}
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted && out.ID != "" {
					mu.Lock()
					acked[out.ID] = tenant
					mu.Unlock()
				}
			}
		}(tenant)
	}

	// Kill only once the tune search has journaled progress AND the
	// bench traffic has acknowledged work in flight.
	ckpt := filepath.Join(ckptDir, journalName(jobRequest{Kind: "tune", tuneSpec: spec}))
	waitForEvals(t, ckpt, 3, 30*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d bench jobs acknowledged before kill", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv1.Process.Kill(); err != nil { // SIGKILL mid-traffic
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	srv1.Wait()

	// Restart on the same store; recovery runs before the banner.
	srv2, base2 := startServe(t, "-workers", "2",
		"-checkpoint-dir", ckptDir, "-store-dir", storeDir,
		"-drain-timeout", "30s")

	// Every acknowledged job reaches exactly one terminal state under
	// its original identity. Bench jobs cannot fail, so the terminal
	// state must be done — whether restored (finished before the kill)
	// or resubmitted and run now.
	for id, tenant := range acked {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=1", base2, id))
		if err != nil {
			t.Fatal(err)
		}
		var info jobs.Info
		json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if info.ID != id || info.Status != jobs.StatusDone {
			t.Fatalf("acknowledged job %s (tenant %s) after restart: %+v", id, tenant, info)
		}
		if info.Tenant != tenant {
			t.Fatalf("job %s lost its tenant: %q, want %q", id, info.Tenant, tenant)
		}
	}

	// The ledger lists each id once, in accepted-seq order, and the
	// ?tenant= filter carves it by tenant.
	var all []jobs.Info
	r, err := http.Get(base2 + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&all)
	r.Body.Close()
	seen := make(map[string]bool)
	for i, info := range all {
		if seen[info.ID] {
			t.Fatalf("job %s listed twice: exactly-once violated", info.ID)
		}
		seen[info.ID] = true
		if i > 0 && all[i].Seq <= all[i-1].Seq {
			t.Fatalf("ledger out of accepted order at %d: %+v", i, all)
		}
	}
	wantAlpha := 0
	for _, tenant := range acked {
		if tenant == "alpha" {
			wantAlpha++
		}
	}
	var alphas []jobs.Info
	r, err = http.Get(base2 + "/jobs?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&alphas)
	r.Body.Close()
	if len(alphas) < wantAlpha {
		t.Fatalf("?tenant=alpha lists %d jobs, acknowledged %d", len(alphas), wantAlpha)
	}
	for _, info := range alphas {
		if info.Tenant != "alpha" {
			t.Fatalf("?tenant=alpha leaked %+v", info)
		}
	}

	// The interrupted tune job resumes from its journal — same id,
	// same best as the uninterrupted reference, no re-measured prefix.
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=1", base2, tuneID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rresp, err := http.Get(fmt.Sprintf("%s/jobs/%s/result", base2, tuneID))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Info   struct{ Status string }
		Result tuneOutcome
	}
	if err := json.NewDecoder(rresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if got.Info.Status != "done" {
		t.Fatalf("resumed tune job status %q", got.Info.Status)
	}
	if got.Result.Resumed < 3 {
		t.Fatalf("resumed tune replayed %d evals, want >= 3", got.Result.Resumed)
	}
	if tuning.AssignKey(got.Result.Best) != tuning.AssignKey(ref.Best) || got.Result.Cost != ref.Cost {
		t.Fatalf("resumed best %v (%.0f) != uninterrupted best %v (%.0f)",
			got.Result.Best, got.Result.Cost, ref.Best, ref.Cost)
	}
	if got.Result.Explored < ref.Evaluations {
		t.Fatalf("resumed tune explored %d configs, uninterrupted evaluated %d",
			got.Result.Explored, ref.Evaluations)
	}

	// The recovery split is observable: finished work restored, the
	// tune job (at least) resubmitted — and restored jobs never ran
	// again, or the restored counter could not cover them.
	mresp, err := http.Get(base2 + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if snap.Counters["jobs.restored"] == 0 {
		t.Fatal("no jobs restored: nothing finished before the kill?")
	}
	if snap.Counters["jobs.resubmitted"] == 0 {
		t.Fatal("no jobs resubmitted: the interrupted tune job must be")
	}

	// SIGTERM drains the restarted server cleanly.
	if err := srv2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Wait(); err != nil {
		t.Fatalf("SIGTERM drain must exit 0, got %v", err)
	}
}
