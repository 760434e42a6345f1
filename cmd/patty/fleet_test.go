package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	neturl "net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"patty/internal/fleet"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/tuning"
)

// startInprocWorker runs a fleet worker inside this process, so a test
// exercises the wire protocol without spawning child processes.
func startInprocWorker(pool int) (url string, stop func(), err error) {
	svc := jobs.New(jobs.Options{Workers: pool, QueueDepth: 64})
	wk := fleet.NewWorker(svc, workerObjective, nil, obs.New())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: wk.Mux()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		svc.Close()
	}, nil
}

// startWorkerProc launches `patty worker` as a real child process (via
// the PATTY_CLI_MAIN re-exec) and returns its base URL from the stdout
// banner. The caller kills it; a cleanup reaps it either way.
func startWorkerProc(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := cliCommand(append([]string{"worker", "-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			url := "http://" + strings.TrimSpace(line[i+len("listening on http://"):])
			go func() {
				for sc.Scan() {
				}
			}()
			return cmd, url
		}
	}
	cmd.Process.Kill()
	t.Fatal("worker never printed its listen address")
	return nil, ""
}

// TestFleetTuneMatchesLocal is the CLI half of the determinism
// guarantee: `patty tune -workers ...` at 1, 2 and 4 workers produces
// the identical outcome — best, cost, evaluation count, trace and
// quarantine set — as the plain in-process run, including through the
// fault-injection path the replay breaker has to reproduce.
func TestFleetTuneMatchesLocal(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	for _, algo := range []string{"linear", "tabu"} {
		t.Run(algo, func(t *testing.T) {
			spec := tuneSpec{Algo: algo, Budget: 120, FaultRate: 10, FaultSeed: 3}
			ref, err := runTune(context.Background(), spec)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if len(ref.Quarantined) == 0 {
				t.Fatal("reference run quarantined nothing under -fault-rate 10")
			}
			for _, n := range []int{1, 2, 4} {
				fspec := spec
				fspec.Workers = nil
				var stops []func()
				for i := 0; i < n; i++ {
					url, stop, err := startInprocWorker(2)
					if err != nil {
						t.Fatal(err)
					}
					stops = append(stops, stop)
					fspec.Workers = append(fspec.Workers, url)
				}
				out, err := runTune(context.Background(), fspec)
				for _, stop := range stops {
					stop()
				}
				if err != nil {
					t.Fatalf("%d workers: %v", n, err)
				}
				if !reflect.DeepEqual(out.Best, ref.Best) || out.Cost != ref.Cost ||
					out.Evaluations != ref.Evaluations || !reflect.DeepEqual(out.Trace, ref.Trace) ||
					!reflect.DeepEqual(out.Quarantined, ref.Quarantined) {
					t.Fatalf("%d workers diverged from local:\n got best %v cost %.0f evals %d quarantined %v\nwant best %v cost %.0f evals %d quarantined %v",
						n, out.Best, out.Cost, out.Evaluations, out.Quarantined,
						ref.Best, ref.Cost, ref.Evaluations, ref.Quarantined)
				}
				if out.Fleet == nil || out.Fleet.Workers != n {
					t.Fatalf("%d workers: fleet stats missing or wrong: %+v", n, out.Fleet)
				}
			}
		})
	}
}

// TestFleetResumeReportsLikeLocal: `patty tune` resumed from a partial
// journal reports the same outcome — Explored and Resumed included,
// both counting the replayed prefix — whether the search runs here or
// on the fleet, each from its own copy of the journal.
func TestFleetResumeReportsLikeLocal(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	for _, algo := range []string{"linear", "tabu"} {
		t.Run(algo, func(t *testing.T) {
			spec := tuneSpec{Algo: algo, Budget: 120, FaultRate: 10, FaultSeed: 3}.withDefaults()
			dir := t.TempDir()
			// The partial journal: runTune's stack (breaker included, so
			// the journal carries its quarantine set), cut after 9 calls of
			// the objective.
			tn, err := tunerFor(spec.Algo)
			if err != nil {
				t.Fatal(err)
			}
			dims, start, obj := spec.evalSpec().workload(context.Background())
			partial := filepath.Join(dir, "partial.ckpt")
			ck, _, err := tuning.NewCheckpointer(partial, tuning.SearchMeta{Algo: tn.Name(), Budget: spec.Budget, Dims: dims, Start: start})
			if err != nil {
				t.Fatal(err)
			}
			br := jobs.NewBreaker(spec.BreakerThreshold, time.Minute)
			ck.Quarantine = br.Quarantined
			ctx, cancel := context.WithCancel(context.Background())
			fresh := 0
			tn.TuneCtx(ctx, dims, start, ck.Wrap(jobs.GuardObjective(br, nil, func(a map[string]int) float64 {
				if fresh++; fresh == 9 {
					cancel()
				}
				return obj(a)
			})), spec.Budget)
			cancel()
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(partial)
			if err != nil {
				t.Fatal(err)
			}
			resumeFrom := func(name string) tuneSpec {
				s := spec
				s.Checkpoint = filepath.Join(dir, name)
				if err := os.WriteFile(s.Checkpoint, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return s
			}

			local, err := runTune(context.Background(), resumeFrom("local.ckpt"))
			if err != nil {
				t.Fatalf("local resume: %v", err)
			}
			url, stop, err := startInprocWorker(2)
			if err != nil {
				t.Fatal(err)
			}
			fspec := resumeFrom("fleet.ckpt")
			fspec.Workers = []string{url}
			out, err := runTune(context.Background(), fspec)
			stop()
			if err != nil {
				t.Fatalf("fleet resume: %v", err)
			}
			if out.Fleet == nil {
				t.Fatal("runTune with workers did not run on the fleet")
			}
			if local.Resumed != ck.Explored() || out.Resumed != local.Resumed || out.Explored != local.Explored {
				t.Fatalf("fleet resumed %d, explored %d; local resumed %d, explored %d (want %d resumed and equal)",
					out.Resumed, out.Explored, local.Resumed, local.Explored, ck.Explored())
			}
			if !reflect.DeepEqual(out.Best, local.Best) || out.Cost != local.Cost || out.Evaluations != local.Evaluations ||
				!reflect.DeepEqual(out.Trace, local.Trace) || !reflect.DeepEqual(out.Quarantined, local.Quarantined) {
				t.Fatalf("fleet resume diverged from local:\n got %+v\nwant %+v", out, local)
			}
		})
	}
}

// TestFleetKillWorkerMidSearch is the chaos scenario from the ISSUE: a
// coordinator sharding across three real `patty worker` processes loses
// one to SIGKILL mid-search; the lease re-dispatch absorbs the loss and
// the merged result still matches the uninterrupted local reference.
func TestFleetKillWorkerMidSearch(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	var victims []*exec.Cmd
	fspec := spec
	fspec.EvalDelayMs = 25 // stretch the search so the SIGKILL lands mid-shard
	fspec.Checkpoint = filepath.Join(t.TempDir(), "fleet.ckpt")
	for i := 0; i < 3; i++ {
		cmd, url := startWorkerProc(t)
		victims = append(victims, cmd)
		fspec.Workers = append(fspec.Workers, url)
	}

	type result struct {
		out *tuneOutcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := runTune(context.Background(), fspec)
		done <- result{out, err}
	}()

	// Wait until the coordinator has journaled a few merged shards, then
	// SIGKILL one worker: no drain, no goodbye, a dead TCP endpoint.
	waitForEvals(t, fspec.Checkpoint, 4, 30*time.Second)
	if err := victims[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victims[0].Wait()

	var r result
	select {
	case r = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fleet search never finished after losing a worker")
	}
	if r.err != nil {
		t.Fatalf("fleet run: %v", r.err)
	}
	out := r.out
	if !reflect.DeepEqual(out.Best, ref.Best) || out.Cost != ref.Cost || out.Evaluations != ref.Evaluations {
		t.Fatalf("killed-worker run diverged:\n got best %v cost %.0f evals %d\nwant best %v cost %.0f evals %d",
			out.Best, out.Cost, out.Evaluations, ref.Best, ref.Cost, ref.Evaluations)
	}
	if out.Fleet.Redispatched < 1 {
		t.Fatalf("killed worker's lease never re-dispatched: %+v", out.Fleet)
	}
	if out.Fleet.WorkersLost < 1 {
		t.Fatalf("killed worker never benched: %+v", out.Fleet)
	}
}

// TestServeFleetJob: a `patty serve` job whose spec names workers runs
// the distributed path and reports the fleet stats in its result,
// matching the local reference.
func TestServeFleetJob(t *testing.T) {
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	ref, err := runTune(context.Background(), tuneSpec{Algo: "linear", Budget: 60})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	url, stop, err := startInprocWorker(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, ts := newTestServer(t, jobs.Options{Workers: 1})

	body := fmt.Sprintf(`{"kind":"tune","algo":"linear","budget":60,"workers":[%q]}`, url)
	id, code := postJob(t, ts.URL, body)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("submit: HTTP %d id=%q", code, id)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info jobs.Info
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "?wait=1")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if info.Status == jobs.StatusDone || info.Status == jobs.StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet job stuck: %+v", info)
		}
	}
	if info.Status != jobs.StatusDone {
		t.Fatalf("fleet job: %+v", info)
	}
	rr, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Result tuneOutcome }
	json.NewDecoder(rr.Body).Decode(&res)
	rr.Body.Close()
	if !reflect.DeepEqual(res.Result.Best, ref.Best) || res.Result.Cost != ref.Cost {
		t.Fatalf("served fleet job diverged: %+v vs %+v", res.Result, ref)
	}
	if res.Result.Fleet == nil || res.Result.Fleet.Workers != 1 {
		t.Fatalf("served fleet job lost its fleet stats: %+v", res.Result)
	}
}

// TestServeIntakeHardening: the job intake now shares the worker's
// hardened decoder — non-JSON content types, oversized bodies and
// malformed JSON are refused before touching the queue.
func TestServeIntakeHardening(t *testing.T) {
	_, ts := newTestServer(t, jobs.Options{Workers: 1})
	post := func(body, ct string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"kind":"tune"}`, "text/plain"); code != http.StatusUnsupportedMediaType {
		t.Fatalf("non-JSON content type: HTTP %d, want 415", code)
	}
	if code := post(`{"kind":`, "application/json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d, want 400", code)
	}
	big := `{"kind":"tune","algo":"` + strings.Repeat("x", 1<<20) + `"}`
	if code := post(big, "application/json"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", code)
	}
	// A well-formed submit still works after the refusals.
	if _, code := postJob(t, ts.URL, `{"kind":"tune","algo":"linear","budget":20}`); code != http.StatusAccepted {
		t.Fatalf("good submit after refusals: HTTP %d", code)
	}
}

// TestFleetJournalCutKeepsQuarantine: a fleet coordinator killed
// mid-search leaves a journal a local `patty tune` resumes to the
// uninterrupted run's quarantine set. The journal is cut the way a
// kill leaves it: copied as each shard reaches the only worker, so it
// holds every earlier merge and no final flush.
func TestFleetJournalCutKeepsQuarantine(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	url, stop, err := startInprocWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	dir := t.TempDir()
	fspec := spec
	fspec.Checkpoint = filepath.Join(dir, "fleet.ckpt")
	var mu sync.Mutex // the proxy's handlers append, the test reads
	var cuts [][]byte
	target, err := neturl.Parse(url)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if raw, err := os.ReadFile(fspec.Checkpoint); err == nil {
			mu.Lock()
			cuts = append(cuts, raw)
			mu.Unlock()
		}
		proxy.ServeHTTP(w, r)
	}))
	defer front.Close()
	fspec.Workers = []string{front.URL}
	fspec.CrossCheck = -1
	if _, err := runTune(context.Background(), fspec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cuts) < 3 {
		t.Fatalf("%d cut(s): the search sent too few shards to cut mid-search", len(cuts))
	}
	for i, raw := range cuts {
		local := spec
		local.Checkpoint = filepath.Join(dir, fmt.Sprintf("cut%d.ckpt", i))
		if err := os.WriteFile(local.Checkpoint, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runTune(context.Background(), local)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Quarantined, ref.Quarantined) || !reflect.DeepEqual(out.Best, ref.Best) {
			t.Errorf("cut %d of %d (%d resumed): quarantined %v, best %v; uninterrupted %v, %v",
				i, len(cuts), out.Resumed, out.Quarantined, out.Best, ref.Quarantined, ref.Best)
		}
	}
}

// TestFleetTuneCounts pins the work of the benchmark's tune-fleet op:
// LinearSearch with budget 150 over tuneWorkload(cores), sharded over
// two in-process workers of one evaluation slot each, for every core
// count the workload cycles through. Each search merges exactly the
// evaluations it reads and splits its asked batches into a fixed
// number of shards; both are set by the search, not by timing, so they
// are exact. The audit count (Stats.CrossChecked) is left out: it
// counts cross-checked responses, and a shard stolen or re-dispatched
// under scheduling can answer, and be audited, more than once.
func TestFleetTuneCounts(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	var urls []string
	for i := 0; i < 2; i++ {
		url, stop, err := startInprocWorker(1)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		urls = append(urls, url)
	}
	for _, tc := range []struct{ cores, merged, shards int }{
		{4, 26, 10}, {5, 26, 10}, {6, 18, 7}, {7, 18, 7},
		{8, 18, 7}, {9, 18, 7}, {10, 18, 7}, {11, 18, 7},
	} {
		dims, start, obj := tuneWorkload(tc.cores)
		spec, err := json.Marshal(evalSpec{Cores: tc.cores})
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := fleet.Tune(context.Background(), tuning.LinearSearch{}, dims, start, 150, fleet.Options{
			Workers:        urls,
			Spec:           spec,
			LocalObjective: obj,
		})
		if err != nil {
			t.Fatalf("cores=%d: %v", tc.cores, err)
		}
		if st.Merged != tc.merged || st.Shards != tc.shards {
			t.Errorf("cores=%d: merged %d in %d shard(s), want %d in %d", tc.cores, st.Merged, st.Shards, tc.merged, tc.shards)
		}
		if st.Merged != res.Evaluations {
			t.Errorf("cores=%d: merged %d evaluations, the search read %d", tc.cores, st.Merged, res.Evaluations)
		}
	}
}
