package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/corpus"
	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
)

// TestRunTuneWarmCacheBitIdentical is the CLI half of the determinism
// gate: a `patty tune -cache-dir` run answered entirely from a warm
// store must produce the bit-identical outcome of the cold run that
// populated it.
func TestRunTuneWarmCacheBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	spec := tuneSpec{Algo: "linear", Budget: 60, Cores: 8, CacheDir: dir}

	before := metrics.Snapshot().Counters["cache.hits"]
	cold, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.Snapshot().Counters["cache.hits"] - before; d != 0 {
		t.Fatalf("cold run hit the cache %d times", d)
	}
	warm, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm outcome diverged:\n got %+v\nwant %+v", warm, cold)
	}
	if d := metrics.Snapshot().Counters["cache.hits"] - before; d < int64(cold.Evaluations) {
		t.Fatalf("warm run hit only %d of %d evaluations", d, cold.Evaluations)
	}
}

// TestTuneCacheIdentity pins what the workload address does and does
// not depend on.
func TestTuneCacheIdentity(t *testing.T) {
	base := tuneSpec{Algo: "linear", Budget: 60, Cores: 8, FaultSeed: 3}
	prog, seed := base.cacheIdentity()
	if prog == "" {
		t.Fatal("empty identity")
	}
	if seed != 3 {
		t.Fatalf("seed slot = %d, want FaultSeed 3", seed)
	}

	delayed := base
	delayed.EvalDelayMs = 50
	if p, _ := delayed.cacheIdentity(); p != prog {
		t.Fatal("EvalDelayMs changed the identity; a kill-harness run should warm the plain cache")
	}
	algo := base
	algo.Algo = "tabu" // the algorithm walks the space, it doesn't define costs
	if p, _ := algo.cacheIdentity(); p != prog {
		t.Fatal("Algo changed the workload identity")
	}
	cores := base
	cores.Cores = 4
	if p, _ := cores.cacheIdentity(); p == prog {
		t.Fatal("Cores did not change the identity, but it changes every cost")
	}
	faulty := base
	faulty.FaultRate = 20
	if p, _ := faulty.cacheIdentity(); p == prog {
		t.Fatal("FaultRate did not change the identity, but it changes which configs fault")
	}
}

// TestJobCacheKey pins the serve-level address: semantics in, noise
// out.
func TestJobCacheKey(t *testing.T) {
	req := jobRequest{Kind: "study", Seed: 5, Tenant: "alice"}
	k1, ok := jobCacheKey(req)
	if !ok {
		t.Fatal("study job not cacheable")
	}
	req.Tenant = "bob"
	if k2, _ := jobCacheKey(req); k2 != k1 {
		t.Fatal("tenant leaked into the job address")
	}
	req.Seed = 6
	if k3, _ := jobCacheKey(req); k3 == k1 {
		t.Fatal("seed did not change the job address")
	}
	if _, ok := jobCacheKey(jobRequest{Kind: "bench", SleepMs: 5}); ok {
		t.Fatal("bench jobs must never be memoized")
	}

	// A program travels by canonical hash: reformatting and comments
	// keep the address; a different program changes it.
	src := corpus.All()[0].Source
	a := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": src}}
	b := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": "// resubmitted\n" + src}}
	ka, ok := jobCacheKey(a)
	if !ok {
		t.Fatal("tune job with sources not cacheable")
	}
	kb, _ := jobCacheKey(b)
	if ka != kb {
		t.Fatal("a comment changed the program address")
	}
	c := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": corpus.All()[1].Source}}
	if kc, _ := jobCacheKey(c); kc == ka {
		t.Fatal("distinct programs share an address")
	}
}

// TestServeJobMemoization drives runnerFor the way handleSubmit and
// recovery do: the first run executes and records, the identical
// resubmission — other tenant, other server instance, reopened store —
// answers the recorded bytes without running.
func TestServeJobMemoization(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	c := obs.New()
	cache, err := evalcache.Open(dir, evalcache.Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 4})
	defer svc.Close()
	srv := newServer(svc, "")
	srv.cache = cache

	req := jobRequest{Kind: "study", Seed: 5, Tenant: "alice"}
	run, err := srv.runnerFor(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Counter("cache.inserts").Value(); n != 1 {
		t.Fatalf("first run recorded %d entries, want 1", n)
	}

	// Same job, different tenant: served from the shared store.
	req.Tenant = "bob"
	run, err = srv.runnerFor(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err = run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := res.(json.RawMessage)
	if !ok {
		t.Fatalf("cached answer is %T, want json.RawMessage", res)
	}
	if string(raw) != string(want) {
		t.Fatalf("cached bytes differ:\n got %s\nwant %s", raw, want)
	}
	if n := c.Counter("cache.hits").Value(); n != 1 {
		t.Fatalf("hits = %d, want 1", n)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new server over a reopened store still answers.
	cache2, err := evalcache.Open(dir, evalcache.Options{Collector: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	srv2 := newServer(svc, "")
	srv2.cache = cache2
	run, err = srv2.runnerFor(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err = run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	raw, ok = res.(json.RawMessage)
	if !ok || string(raw) != string(want) {
		t.Fatalf("post-restart answer diverged: %v", res)
	}
}

// TestServeJobMemoizationDuplicateTraffic is the duplicate-traffic
// leg of the cache gate: after a cold pass of three corpus tune jobs,
// t1, t2 and a hog resubmit each program five times over HTTP with a
// comment appended, so only the canonical program hash can match
// them. Every one of the 15 duplicates must be answered by the store.
func TestServeJobMemoizationDuplicateTraffic(t *testing.T) {
	c := obs.New()
	cache, err := evalcache.Open(filepath.Join(t.TempDir(), "cas"), evalcache.Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	srv, ts := newTestServer(t, jobs.Options{Workers: 4, QueueDepth: 64, Collector: c})
	srv.cache = cache

	programs := corpus.All()[:3]
	submit := func(tenant string, i int, src string) {
		t.Helper()
		// cores varies per program, so each cold job is cold at the
		// evaluation level too.
		body, _ := json.Marshal(map[string]any{
			"kind": "tune", "algo": "linear", "budget": 120, "cores": 4 + i,
			"sources": map[string]string{programs[i].Name + ".go": src},
		})
		id, code := postJobTenant(t, ts.URL, tenant, string(body))
		if code != http.StatusAccepted {
			t.Fatalf("%s %s: HTTP %d", tenant, programs[i].Name, code)
		}
		waitJobDone(t, ts.URL, id)
	}
	for i, p := range programs {
		submit("t1", i, p.Source)
	}
	hits := c.Counter("cache.hits")
	cold := hits.Value()
	dups := 0
	for i, p := range programs {
		for k, tenant := range []string{"t1", "t2", "hog", "hog", "hog"} {
			submit(tenant, i, p.Source+fmt.Sprintf("\n// resubmission %d by %s\n", k, tenant))
			dups++
		}
	}
	if n := hits.Value() - cold; n != int64(dups) {
		t.Fatalf("%d store hits for %d duplicates, want one each", n, dups)
	}
}
