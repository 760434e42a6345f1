package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/tuning"
)

// testSpace is the shared search space of these tests: a stepped
// dimension (so the Min- and start-anchored lattices differ) crossed
// with a dense one, and a pure objective with a unique minimum.
func testSpace() ([]tuning.Dim, map[string]int, tuning.Objective) {
	dims := []tuning.Dim{
		{Key: "x", Min: 0, Max: 6, Step: 2},
		{Key: "y", Min: 0, Max: 2},
	}
	start := map[string]int{"x": 3, "y": 1}
	obj := func(a map[string]int) float64 {
		return float64((6-a["x"])*(6-a["x"])*10 + (2-a["y"])*3)
	}
	return dims, start, obj
}

// countingHook adapts obj into a Worker objective hook that counts
// every real evaluation.
func countingHook(obj tuning.Objective, calls *atomic.Int64) func(json.RawMessage) (tuning.Objective, error) {
	return func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			calls.Add(1)
			return obj(a)
		}, nil
	}
}

// startWorker runs a real fleet Worker on httptest and tears it down
// with the test.
func startWorker(t testing.TB, hook func(json.RawMessage) (tuning.Objective, error), cacheDir string) (string, *obs.Collector) {
	t.Helper()
	c := obs.New()
	var cache *evalcache.Store
	if cacheDir != "" {
		var err error
		cache, err = evalcache.Open(cacheDir, evalcache.Options{Collector: c})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cache.Close() })
	}
	svc := jobs.New(jobs.Options{Workers: 2, QueueDepth: 32, Collector: c})
	wk := NewWorker(svc, hook, cache, c)
	ts := httptest.NewServer(wk.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return ts.URL, c
}

// TestEnumerateCoversTunerVisits is the property the fleet's table
// rests on: every configuration a stock tuner evaluates appeared in an
// ask before the tuner evaluated it, and every configuration it asked
// for was evaluated, so the fleet measures exactly the search.
func TestEnumerateCoversTunerVisits(t *testing.T) {
	dims, start, obj := testSpace()
	tuners := []tuning.Tuner{
		tuning.LinearSearch{}, tuning.RandomSearch{Seed: 1},
		tuning.TabuSearch{}, tuning.NelderMead{},
	}
	for _, tn := range tuners {
		for _, budget := range []int{1, 5, 300} {
			asked := map[string]bool{}
			ctx := tuning.WithAsk(context.Background(), func(batch []map[string]int) {
				for _, a := range batch {
					key := tuning.AssignKey(a)
					if asked[key] {
						t.Errorf("%s/%d: %s asked twice", tn.Name(), budget, key)
					}
					asked[key] = true
				}
			})
			evaluated := map[string]bool{}
			rec := func(a map[string]int) float64 {
				key := tuning.AssignKey(a)
				if !asked[key] {
					t.Errorf("%s/%d: evaluated %s before any ask named it", tn.Name(), budget, key)
				}
				evaluated[key] = true
				return obj(a)
			}
			res := tn.TuneCtx(ctx, dims, start, rec, budget)
			if len(asked) != len(evaluated) || res.Evaluations != len(evaluated) {
				t.Errorf("%s/%d: asked %d configs, evaluated %d (%d evaluations)",
					tn.Name(), budget, len(asked), len(evaluated), res.Evaluations)
			}
			if ref := tn.TuneCtx(context.Background(), dims, start, obj, budget); !reflect.DeepEqual(res, ref) {
				t.Errorf("%s/%d: asking changed the search:\n got %+v\nwant %+v", tn.Name(), budget, res, ref)
			}
		}
	}
}

// TestTuneDeterministicAcrossWorkerCounts is the tentpole property:
// with a fixed seed the merged result at 1, 2 and 4 workers is
// bit-identical to the uninterrupted single-process run, for every
// stock tuner; every configuration the search evaluates was asked for
// and measured exactly once across the whole fleet, and nothing else
// was.
func TestTuneDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	for _, tn := range []tuning.Tuner{tuning.LinearSearch{}, tuning.TabuSearch{}, tuning.RandomSearch{Seed: 1}, tuning.NelderMead{}} {
		ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", tn.Name(), n), func(t *testing.T) {
				var calls atomic.Int64
				var urls []string
				for i := 0; i < n; i++ {
					url, _ := startWorker(t, countingHook(obj, &calls), "")
					urls = append(urls, url)
				}
				res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
					Workers:        urls,
					LocalObjective: obj,
					ShardSize:      2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("fleet result diverged:\n got %+v\nwant %+v", res, ref)
				}
				if st.LocalEvals != 0 {
					t.Fatalf("search evaluated %d configs no batch asked for", st.LocalEvals)
				}
				if int(calls.Load()) != st.Merged || st.Merged != ref.Evaluations {
					t.Fatalf("workers evaluated %d configs, merged %d, search evaluated %d", calls.Load(), st.Merged, ref.Evaluations)
				}
			})
		}
	}
}

// TestTuneWarmCacheBitIdentical is the determinism gate for the shared
// evaluation store: a search run against a warm cache must produce the
// bit-identical Result of a cold run — and do so without measuring a
// single configuration or dispatching a single shard, because the
// store answers every batch the search asks for.
func TestTuneWarmCacheBitIdentical(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	dir := filepath.Join(t.TempDir(), "cas")

	// Cold run: workers measure everything; complete() journals each
	// merged record into the store.
	cold, err := evalcache.Open(dir, evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var coldCalls atomic.Int64
	urlCold, _ := startWorker(t, countingHook(obj, &coldCalls), "")
	opts := Options{
		Workers:        []string{urlCold},
		LocalObjective: obj,
		Cache:          tuning.Memo{Store: cold, Program: "sha256:test-program", Seed: 7},
	}
	resCold, stCold, err := Tune(context.Background(), tn, dims, start, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stCold.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", stCold.CacheHits)
	}
	if cold.Len() != resCold.Evaluations {
		t.Fatalf("store holds %d entries after the cold run, the search evaluated %d", cold.Len(), resCold.Evaluations)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm run: a fresh process ("restart") over the same directory.
	warm, err := evalcache.Open(dir, evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	var warmCalls atomic.Int64
	urlWarm, _ := startWorker(t, countingHook(obj, &warmCalls), "")
	opts.Workers = []string{urlWarm}
	opts.Cache.Store = warm
	resWarm, stWarm, err := Tune(context.Background(), tn, dims, start, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resWarm, resCold) {
		t.Fatalf("warm-cache result diverged from cold:\n got %+v\nwant %+v", resWarm, resCold)
	}
	if warmCalls.Load() != 0 {
		t.Fatalf("warm run re-measured %d configs", warmCalls.Load())
	}
	if stWarm.CacheHits != resCold.Evaluations {
		t.Fatalf("warm run hit %d of %d configs", stWarm.CacheHits, resCold.Evaluations)
	}
	if stWarm.Shards != 0 {
		t.Fatalf("warm run still dispatched %d shards", stWarm.Shards)
	}
	if stWarm.LocalEvals != 0 {
		t.Fatalf("warm search missed the table %d times", stWarm.LocalEvals)
	}
}

// TestLeaseExpiryRedispatch: a worker that hangs forever loses its
// lease at the TTL; the shard is re-dispatched to the surviving worker
// and the hung worker is benched, without changing the result.
func TestLeaseExpiryRedispatch(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	hangRelease := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select { // never answers; the lease TTL must fire
		case <-r.Context().Done():
		case <-hangRelease:
		}
	}))
	defer func() {
		close(hangRelease)
		hang.Close()
		http.DefaultClient.CloseIdleConnections()
	}()
	slowObj := func(a map[string]int) float64 {
		time.Sleep(2 * time.Millisecond)
		return obj(a)
	}
	var calls atomic.Int64
	good, _ := startWorker(t, countingHook(slowObj, &calls), "")

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:         []string{hang.URL, good},
		LocalObjective:  obj,
		ShardSize:       3,
		LeaseTTL:        150 * time.Millisecond,
		StealAfter:      time.Hour, // redispatch, not speculation, must recover it
		WorkerFailLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged after lease expiry:\n got %+v\nwant %+v", res, ref)
	}
	if st.Redispatched < 1 {
		t.Fatalf("expired lease never re-dispatched: %+v", st)
	}
	if st.WorkersLost != 1 {
		t.Fatalf("hung worker not benched: %+v", st)
	}
}

// TestStealFirstResultWins: an idle worker speculatively duplicates the
// straggler's shard; the first answer wins and the loser's evaluations
// are deduplicated.
func TestStealFirstResultWins(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	answer := func(w http.ResponseWriter, req ShardRequest) {
		resp := ShardResponse{Shard: req.Shard}
		for _, a := range req.Configs {
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: obj(a)})
		}
		WriteJSON(w, http.StatusOK, resp)
	}
	// The straggler holds its first shard until the fast worker is sent
	// a shard of the second batch, so the first batch was merged through
	// the steal. The fast worker answers that shard only once the
	// straggler's late answer is on the wire, so the loser's
	// evaluations reach the coordinator while the search still runs.
	release, lateSent := make(chan struct{}), make(chan struct{})
	var straggled, released atomic.Bool
	wait := func(r *http.Request, c chan struct{}, what string) {
		select {
		case <-c:
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
			t.Errorf("%s never happened", what)
		}
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		if !straggled.CompareAndSwap(false, true) {
			answer(w, req)
			return
		}
		wait(r, release, "the second batch")
		answer(w, req)
		w.(http.Flusher).Flush()
		close(lateSent)
	}))
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		// The first batch (start plus the x sweep: 5 configs) is shards
		// 0 and 1.
		if req.Shard >= 2 && released.CompareAndSwap(false, true) {
			close(release)
			wait(r, lateSent, "the straggler's answer")
		}
		answer(w, req)
	}))
	defer func() {
		slow.Close()
		fast.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{slow.URL, fast.URL},
		LocalObjective: obj,
		LeaseTTL:       30 * time.Second,
		StealAfter:     30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged under stealing:\n got %+v\nwant %+v", res, ref)
	}
	if st.Stolen < 1 {
		t.Fatalf("idle worker never stole the straggler's shard: %+v", st)
	}
	if st.Duplicates < 1 {
		t.Fatalf("steal loser's evaluations not deduplicated: %+v", st)
	}
	if st.Merged != ref.Evaluations {
		t.Fatalf("merged %d evals, the search evaluated %d", st.Merged, ref.Evaluations)
	}
	// Exactly two shards per batch: the batches ask for 5, 2 and 3 new
	// configurations (start and the x sweep, the y sweep at x=6, the x
	// sweep at y=2), split ⌈n/2⌉ per shard.
	if st.Shards != 6 {
		t.Fatalf("%d shards, want 2 per batch of 3 batches", st.Shards)
	}
}

// TestAllConfigsFaultedAcrossShards: when every configuration faults on
// every worker, the shards merge their faulted records and the replay
// aggregates them into the same ErrAllConfigsFaulted a local run
// reports.
func TestAllConfigsFaultedAcrossShards(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, _ := testSpace()
	tn := tuning.LinearSearch{}
	faulty := func(map[string]int) float64 { return math.Inf(1) }

	refBr := jobs.NewBreaker(3, 30*time.Second)
	ref := tn.TuneCtx(context.Background(), dims, start, jobs.GuardObjective(refBr, nil, faulty), 120)
	if !errors.Is(ref.Err, tuning.ErrAllConfigsFaulted) {
		t.Fatalf("reference run: %v", ref.Err)
	}

	var calls atomic.Int64
	w1, _ := startWorker(t, countingHook(faulty, &calls), "")
	w2, _ := startWorker(t, countingHook(faulty, &calls), "")
	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{w1, w2},
		LocalObjective: faulty,
		ShardSize:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, tuning.ErrAllConfigsFaulted) {
		t.Fatalf("fleet run did not aggregate the all-faulted verdict: %+v", res)
	}
	if res.Evaluations != ref.Evaluations || !math.IsInf(res.BestCost, 1) {
		t.Fatalf("fleet all-faulted result %+v != reference %+v", res, ref)
	}
	if len(st.Quarantined) == 0 {
		t.Fatalf("replay breaker quarantined nothing: %+v", st)
	}
}

// TestCoordinatorCrashResume: a first coordinator merges part of the
// space into its checkpoint and dies (all workers lost); a second
// coordinator on the same checkpoint re-adopts the merged prefix,
// leases only the remainder, and finishes with the uninterrupted
// result.
func TestCoordinatorCrashResume(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	// A worker that answers its first two shards, then hangs forever.
	var served atomic.Int64
	flakyRelease := make(chan struct{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-flakyRelease:
			}
			return
		}
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		resp := ShardResponse{Shard: req.Shard}
		for _, a := range req.Configs {
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: obj(a)})
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	defer func() {
		close(flakyRelease)
		flaky.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	_, st1, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:         []string{flaky.URL},
		LocalObjective:  obj,
		Checkpoint:      ckpt,
		ShardSize:       3,
		LeaseTTL:        150 * time.Millisecond,
		StealAfter:      time.Hour,
		WorkerFailLimit: 1,
	})
	if err == nil {
		t.Fatal("first coordinator must fail once its only worker is lost")
	}
	if st1.Merged < 3 {
		t.Fatalf("first coordinator merged %d evals before dying, want >= one shard", st1.Merged)
	}

	// Second coordinator, healthy worker, same checkpoint.
	var calls atomic.Int64
	good, _ := startWorker(t, countingHook(obj, &calls), "")
	res, st2, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{good},
		LocalObjective: obj,
		Checkpoint:     ckpt,
		ShardSize:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("resumed fleet result diverged:\n got %+v\nwant %+v", res, ref)
	}
	if st2.Resumed != st1.Merged {
		t.Fatalf("resumed %d evals, first run merged %d", st2.Resumed, st1.Merged)
	}
	if int(calls.Load()) != ref.Evaluations-st1.Merged {
		t.Fatalf("second run re-evaluated the merged prefix: %d worker evals for %d remaining configs",
			calls.Load(), ref.Evaluations-st1.Merged)
	}
	// The fleet checkpoint is a plain tuning checkpoint: a local search
	// resumes it without re-measuring anything.
	ck, resumed, err := tuning.NewCheckpointer(ckpt, tuning.SearchMeta{
		Algo: tn.Name(), Budget: 120, Dims: dims, Start: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != ref.Evaluations {
		t.Fatalf("local resume sees %d journaled evals, the search evaluated %d", resumed, ref.Evaluations)
	}
	localRes := tn.TuneCtx(context.Background(), dims, start, ck.Wrap(func(map[string]int) float64 {
		t.Fatal("local resume re-measured a configuration")
		return 0
	}), 120)
	if tuning.AssignKey(localRes.Best) != tuning.AssignKey(ref.Best) || localRes.BestCost != ref.BestCost {
		t.Fatalf("local resume of the fleet checkpoint diverged: %+v", localRes)
	}
}

// TestWorkerIntakeHardening: the worker's POST intake refuses non-JSON
// content types (415), oversized bodies (413), malformed JSON (400),
// empty shards (400), and answers overload with 503 plus a Retry-After
// from the intake breaker.
func TestWorkerIntakeHardening(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	_, _, obj := testSpace()
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	blocking := func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			<-release
			return obj(a)
		}, nil
	}
	c := obs.New()
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1, Collector: c})
	wk := NewWorker(svc, blocking, nil, c)
	ts := httptest.NewServer(wk.Mux())
	defer func() {
		// On a failure path the blocked handlers still wait for
		// release; ts.Close would wait for them forever.
		unblock()
		ts.Close()
		svc.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	shard := `{"search":"s","shard":0,"configs":[{"x":1}]}`
	post := func(body, ct string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/shards", ct, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(shard, "text/plain"); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("non-JSON content type: HTTP %d, want 415", resp.StatusCode)
	}
	big := `{"search":"s","configs":[{"x":` + string(bytes.Repeat([]byte("1"), MaxBodyBytes+16)) + `}]}`
	if resp := post(big, "application/json"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if resp := post(`{"search":`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"search":"s","configs":[]}`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty shard: HTTP %d, want 400", resp.StatusCode)
	}

	// Fill the service: one shard running, one queued; the third sheds
	// with 503 and the breaker-backed Retry-After. The second shard is
	// posted only once the worker runs the first: posted together, the
	// second could arrive while the first still holds the one queue
	// slot, and be shed itself.
	inflight := make(chan struct{}, 2)
	fill := func(admitted func(obs.Snapshot) bool) {
		go func() {
			resp, err := http.Post(ts.URL+"/shards", "application/json", bytes.NewReader([]byte(shard)))
			if err == nil {
				resp.Body.Close()
			}
			inflight <- struct{}{}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for !admitted(c.Snapshot()) {
			if time.Now().After(deadline) {
				t.Fatal("blocking shards never admitted")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	fill(func(s obs.Snapshot) bool { return s.Gauges["jobs.running"] >= 1 })
	fill(func(s obs.Snapshot) bool { return s.Counters["jobs.submitted"] >= 2 })
	resp := post(shard, "application/json")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 Retry-After = %q, want >= 1 second", ra)
	}
	unblock()
	<-inflight
	<-inflight
}

// TestWorkerCacheResume: a worker restarted with the same cache
// directory answers repeated configurations from its journal instead of
// re-measuring them.
func TestWorkerCacheResume(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	_, _, obj := testSpace()
	dir := t.TempDir()
	configs := []map[string]int{
		{"x": 0, "y": 0}, {"x": 2, "y": 0}, {"x": 4, "y": 0}, {"x": 6, "y": 0}, {"x": 0, "y": 1},
	}
	req, _ := json.Marshal(ShardRequest{Search: "cache-test", Shard: 0, Configs: configs})

	var calls1 atomic.Int64
	url1, _ := startWorker(t, countingHook(obj, &calls1), dir)
	resp1, err := http.Post(url1+"/shards", "application/json", bytes.NewReader(req))
	if err != nil || resp1.StatusCode != http.StatusOK {
		t.Fatalf("first shard: %v HTTP %v", err, resp1)
	}
	var sr1 ShardResponse
	json.NewDecoder(resp1.Body).Decode(&sr1)
	resp1.Body.Close()
	if int(calls1.Load()) != len(configs) || len(sr1.Evals) != len(configs) {
		t.Fatalf("first worker measured %d, answered %d", calls1.Load(), len(sr1.Evals))
	}

	// "Restart": a fresh Worker over the same cache directory.
	var calls2 atomic.Int64
	url2, c2 := startWorker(t, countingHook(obj, &calls2), dir)
	resp2, err := http.Post(url2+"/shards", "application/json", bytes.NewReader(req))
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed shard: %v HTTP %v", err, resp2)
	}
	var sr2 ShardResponse
	json.NewDecoder(resp2.Body).Decode(&sr2)
	resp2.Body.Close()
	if calls2.Load() != 0 {
		t.Fatalf("restarted worker re-measured %d configs", calls2.Load())
	}
	if !reflect.DeepEqual(sr1.Evals, sr2.Evals) {
		t.Fatalf("journal replay diverged:\n got %+v\nwant %+v", sr2.Evals, sr1.Evals)
	}
	if hits := c2.Snapshot().Counters["cache.hits"]; int(hits) != len(configs) {
		t.Fatalf("cache.hits = %d, want %d", hits, len(configs))
	}
	// The old ad-hoc counter is gone: fleet hit accounting lives in the
	// shared cache.* grammar now.
	if stale := c2.Snapshot().Counters["fleet.worker.cache_hits"]; stale != 0 {
		t.Fatalf("stale fleet.worker.cache_hits counter still published: %d", stale)
	}
}

// TestWorkerCacheScopedBySearch: a caching worker serving two
// different searches for a coordinator without an evaluation store
// (no Program in the requests) keys each search's entries by its
// signature, so neither search is answered from the other's costs.
func TestWorkerCacheScopedBySearch(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	scaled := func(k int) tuning.Objective {
		return func(a map[string]int) float64 { return obj(a)*float64(k) + 1 }
	}
	var calls atomic.Int64
	url, _ := startWorker(t, func(spec json.RawMessage) (tuning.Objective, error) {
		var k int
		if err := json.Unmarshal(spec, &k); err != nil {
			return nil, err
		}
		return func(a map[string]int) float64 {
			calls.Add(1)
			return scaled(k)(a)
		}, nil
	}, t.TempDir())

	tn := tuning.LinearSearch{}
	for _, tc := range []struct{ k, budget int }{{1, 120}, {2, 121}} {
		calls.Store(0)
		ref := tn.TuneCtx(context.Background(), dims, start, scaled(tc.k), tc.budget)
		res, st, err := Tune(context.Background(), tn, dims, start, tc.budget, Options{
			Workers:        []string{url},
			Spec:           json.RawMessage(fmt.Sprint(tc.k)),
			LocalObjective: scaled(tc.k),
			CrossCheck:     -1, // a stale answer must show in the result, not in the audit
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("search k=%d answered from another search's entries:\n got %+v\nwant %+v", tc.k, res, ref)
		}
		if int(calls.Load()) != st.Merged {
			t.Fatalf("search k=%d: worker measured %d of %d merged configs", tc.k, calls.Load(), st.Merged)
		}
	}
}

// TestTuneInputValidation: no workers and a missing objective are
// refused up front, but the size of the space is not: a million
// configurations (far above any space that could be enumerated and
// sharded whole) tune on a worker pair, bit-identical to the local run,
// measuring only what the search asks for.
func TestTuneInputValidation(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{LocalObjective: obj}); err == nil {
		t.Fatal("no workers must be an error")
	}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{Workers: []string{"http://x"}}); err == nil {
		t.Fatal("missing LocalObjective must be an error")
	}

	big := []tuning.Dim{
		{Key: "a", Min: 0, Max: 99},
		{Key: "b", Min: 0, Max: 99},
		{Key: "c", Min: 0, Max: 99},
	}
	bigStart := map[string]int{"a": 50, "b": 50, "c": 50}
	bigObj := func(a map[string]int) float64 {
		return float64((a["a"]-17)*(a["a"]-17) + 3*(a["b"]-71)*(a["b"]-71) + (a["c"]-40)*(a["c"]-40))
	}
	const budget = 250
	ref := tn.TuneCtx(context.Background(), big, bigStart, bigObj, budget)
	var calls atomic.Int64
	w1, _ := startWorker(t, countingHook(bigObj, &calls), "")
	w2, _ := startWorker(t, countingHook(bigObj, &calls), "")
	res, st, err := Tune(context.Background(), tn, big, bigStart, budget, Options{
		Workers:        []string{w1, w2},
		LocalObjective: bigObj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("large-space fleet result diverged:\n got %+v\nwant %+v", res, ref)
	}
	if st.Merged > budget || int(calls.Load()) != st.Merged || st.LocalEvals != 0 {
		t.Fatalf("merged %d (budget %d), workers measured %d, %d local", st.Merged, budget, calls.Load(), st.LocalEvals)
	}

	// RandomSearch asks for all its draws at once: on one worker the
	// batch splits into shards of maxShardConfigs, each of whose request
	// and response fit the worker's and the coordinator's body caps.
	const draws = 30000
	rs := tuning.RandomSearch{Seed: 1}
	ref = rs.TuneCtx(context.Background(), big, bigStart, bigObj, draws)
	calls.Store(0)
	res, st, err = Tune(context.Background(), rs, big, bigStart, draws, Options{
		Workers:        []string{w1},
		LocalObjective: bigObj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("large-batch fleet result diverged:\n got %+v\nwant %+v", res, ref)
	}
	if int(calls.Load()) != st.Merged || st.LocalEvals != 0 || st.Shards < (st.Merged+maxShardConfigs-1)/maxShardConfigs {
		t.Fatalf("merged %d in %d shards, workers measured %d, %d local", st.Merged, st.Shards, calls.Load(), st.LocalEvals)
	}
}
