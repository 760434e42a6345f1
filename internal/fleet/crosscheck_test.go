package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/report"
	"patty/internal/tuning"
)

// TestCrossCheckTruthSingleFlight: N concurrent callers asking for the
// truth of one key share a single LocalObjective call and all read its
// cost.
func TestCrossCheckTruthSingleFlight(t *testing.T) {
	const n = 16
	var calls atomic.Int64
	var started sync.WaitGroup
	started.Add(n)
	opts := Options{LocalObjective: func(a map[string]int) float64 {
		calls.Add(1)
		started.Wait()                    // every caller is in flight before the first returns
		time.Sleep(10 * time.Millisecond) // and has had time to reach the cache
		return float64(a["x"]) + 0.5
	}}
	s := &scheduler{truth: make(map[string]*truthCell)}
	costs := make([]float64, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			costs[i] = s.localTruth(map[string]int{"x": 3}, opts)
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("LocalObjective called %d times for one key, want 1", got)
	}
	for i, c := range costs {
		if c != 3.5 {
			t.Fatalf("caller %d read %v, want 3.5", i, c)
		}
	}
}

// TestCrossCheckOverlapsDispatch: the audit sample is measured while
// its shard is in flight. The worker withholds every response until the
// coordinator has called LocalObjective for each sampled configuration
// of that shard — a serial audit, which measures only after the
// response arrives, would stall every shard until the timeout.
func TestCrossCheckOverlapsDispatch(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
	const ckSeed = 7

	var mu sync.Mutex
	measured := map[string]chan struct{}{}
	measuredCh := func(key string) chan struct{} { // callers hold mu
		c := measured[key]
		if c == nil {
			c = make(chan struct{})
			measured[key] = c
		}
		return c
	}
	local := func(a map[string]int) float64 {
		mu.Lock()
		c := measuredCh(tuning.AssignKey(a))
		select {
		case <-c: // measured before
		default:
			close(c)
		}
		mu.Unlock()
		return obj(a)
	}

	var stalled atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		for _, idx := range pickSample(ckSeed, req.Search, req.Shard, len(req.Configs), 2) {
			mu.Lock()
			c := measuredCh(tuning.AssignKey(req.Configs[idx]))
			mu.Unlock()
			if stalled.Load() {
				break
			}
			select {
			case <-c:
			case <-time.After(10 * time.Second):
				stalled.Store(true)
				t.Errorf("shard %d: sampled config %d not measured while the shard was in flight", req.Shard, idx)
			}
		}
		resp := ShardResponse{Shard: req.Shard}
		for _, a := range req.Configs {
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: obj(a)})
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	defer func() {
		worker.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{worker.URL},
		LocalObjective: local,
		ShardSize:      4,
		CrossCheck:     2,
		CrossCheckSeed: ckSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged:\n got %+v\nwant %+v", res, ref)
	}
	if st.CrossChecked == 0 || st.Divergent != 0 {
		t.Fatalf("audit ledger: %d checked, %d divergent; want >0 checked, none divergent", st.CrossChecked, st.Divergent)
	}
}

// TestCrossCheckAheadLiarLedger: auditing ahead changes when the truth
// is measured, not what is decided. On the quarantine fixture the
// liar's divergent shard is never merged (its scorecard holds only the
// 4 evaluations of its first, dodged shard) and the byzantine ledger
// matches the serial audit's exactly.
func TestCrossCheckAheadLiarLedger(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	st, liar := dodgingLiarSearch(t)
	// 4 shards of 4, 4, 4 and 1 configs: the liar's dodged first shard
	// (2 audits) and its caught second one (2 audits, both divergent),
	// then the honest worker's first shard, the liar's re-queued one and
	// the last (2 + 2 + 1 audits).
	want := [4]int{9, 2, 4, 2}
	if got := [4]int{st.CrossChecked, st.Divergent, st.Reverified, st.Corrected}; got != want {
		t.Fatalf("CrossChecked/Divergent/Reverified/Corrected = %v, want %v", got, want)
	}
	for _, h := range st.Health {
		if h.Worker == liar && (h.Evals != 4 || !h.Quarantined) {
			t.Fatalf("liar scorecard %+v: want 4 merged evals (its dodged shard only) and quarantined", h)
		}
	}
}

// TestCrossCheckAheadCancel: canceling the search while a shard and its
// audit are both in flight returns only after the audit has finished —
// no LocalObjective call is still running when Tune returns — and
// leaks no goroutine.
func TestCrossCheckAheadCancel(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	auditing := make(chan struct{}, 1)
	var active atomic.Int64
	local := func(a map[string]int) float64 { // slow, but honors ctx
		active.Add(1)
		defer active.Add(-1)
		select {
		case auditing <- struct{}{}:
		default:
		}
		tm := time.NewTimer(time.Minute)
		defer tm.Stop()
		select {
		case <-ctx.Done():
			time.Sleep(50 * time.Millisecond) // winding down takes a moment
		case <-tm.C:
		}
		return obj(a)
	}

	inflight := make(chan struct{}, 1)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // lets the server notice the client hanging up
		select {
		case inflight <- struct{}{}:
		default:
		}
		<-r.Context().Done() // never answers; the coordinator gives up
	}))
	defer func() {
		worker.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	done := make(chan error, 1)
	go func() {
		_, _, err := Tune(ctx, tuning.LinearSearch{}, dims, start, 120, Options{
			Workers:        []string{worker.URL},
			LocalObjective: local,
			ShardSize:      4,
		})
		done <- err
	}()
	for _, c := range []chan struct{}{inflight, auditing} {
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			cancel()
			<-done
			t.Fatal("shard dispatch and its audit were never in flight together")
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Tune did not return after cancellation")
	}
	if n := active.Load(); n != 0 {
		t.Fatalf("%d LocalObjective call(s) still running after Tune returned", n)
	}
}

// TestCrossCheckRestartOnConsumedLie: a liar that dodges its first audit
// gets lies merged, and the running search reads them and walks toward
// them; the liar is caught in the next batch. The coordinator discards
// that run and reruns the tuner over the corrected table, so the result
// equals the local reference, and the rerun ships no configuration the
// table already holds: the honest worker measures every configuration
// at most once, and never one the liar's merged shard answered.
func TestCrossCheckRestartOnConsumedLie(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
	const ckSeed = 5

	// The liar claims cost -1 (better than any true cost) wherever it
	// lies. Its first answer is honest exactly on the one sampled
	// configuration; every later answer lies throughout. Responses are
	// sequential, one coordinator goroutine per worker.
	var mu sync.Mutex
	var liarFirst []string // configs of the liar's first (merged) answer
	var responses atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		first := responses.Add(1) == 1
		sampled := map[int]bool{}
		for _, i := range pickSample(ckSeed, req.Search, req.Shard, len(req.Configs), 1) {
			sampled[i] = true
		}
		resp := ShardResponse{Shard: req.Shard}
		for i, a := range req.Configs {
			cost := -1.0
			if first && sampled[i] {
				cost = obj(a)
			}
			if first {
				mu.Lock()
				liarFirst = append(liarFirst, tuning.AssignKey(a))
				mu.Unlock()
			}
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: cost})
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	defer func() {
		liar.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	// The honest worker is slow, so the fast liar takes a shard of each
	// early batch.
	measured := map[string]int{}
	honest, _ := startWorker(t, func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			mu.Lock()
			measured[tuning.AssignKey(a)]++
			mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			return obj(a)
		}, nil
	}, "")

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{honest, liar.URL},
		LocalObjective: obj,
		CrossCheck:     1,
		CrossCheckSeed: ckSeed,
		StealAfter:     time.Hour, // no speculative duplicates
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged despite the rerun:\n got %+v\nwant %+v", res, ref)
	}
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar.URL {
		t.Fatalf("quarantined %v, want the liar", st.ByzantineQuarantined)
	}
	if st.Corrected < 1 || st.Reruns != 1 {
		t.Fatalf("corrected %d, reruns %d: want the read lie corrected and one rerun", st.Corrected, st.Reruns)
	}
	mu.Lock()
	defer mu.Unlock()
	for key, n := range measured {
		if n > 1 {
			t.Errorf("honest worker measured %s %d times", key, n)
		}
	}
	for _, key := range liarFirst {
		if measured[key] > 0 {
			t.Errorf("%s, answered by the liar's merged shard, was dispatched again", key)
		}
	}
	liarEvals := 0
	for _, h := range st.Health {
		if h.Worker == liar.URL {
			liarEvals = h.Evals
		}
	}
	if liarEvals != len(liarFirst) || len(measured) != st.Merged-liarEvals || st.Duplicates != 0 || st.LocalEvals != 0 {
		t.Fatalf("liar merged %d of its %d first configs; honest measured %d of %d merged; %d duplicates, %d local",
			liarEvals, len(liarFirst), len(measured), st.Merged, st.Duplicates, st.LocalEvals)
	}
}

// TestCrossCheckRerunAfterLateQuarantine: a liar dodges its first
// audit, so the search reads its lies, and is caught only on a shard it
// steals from a slow honest worker. The honest worker then finishes
// that shard while the liar's quarantine is still re-verifying its past
// answers, so the batch is complete before the correction lands. The
// search must still end on the corrected table: the result equals the
// local reference after exactly one rerun. Channels and the
// coordinator's per-worker merge counts force that order, whatever the
// scheduling; a step that does not happen within a generous deadline
// fails the test instead of hanging it.
func TestCrossCheckRerunAfterLateQuarantine(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
	const ckSeed = 5
	const deadline = 10 * time.Second
	c := obs.New()
	var honestURL, liarURL string
	merged := func(worker string) int64 { return c.CounterOf("fleet.peer.evals", worker).Value() }

	var mu sync.Mutex
	liarShards := map[int]bool{}   // shard ids the liar received
	honestShards := map[int]bool{} // shard ids the honest worker received
	liarFirst := map[string]bool{} // configs of the liar's first answer
	// holding is closed once the honest worker holds a shard for the
	// liar to steal, caught once the liar has sent its stolen lie, and
	// reverifying once the quarantine has started re-verifying the
	// liar's first answer.
	holding, caught, reverifying := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var holdOnce, catchOnce, reverifyOnce sync.Once
	var honestRequests atomic.Int64
	closed := func(ch chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	await := func(ch chan struct{}, r *http.Request, what string) bool {
		select {
		case <-ch:
		case <-r.Context().Done():
			return false
		case <-time.After(deadline):
			t.Errorf("%s within %v", what, deadline)
		}
		return true
	}
	waitFor := func(cond func() bool, what string) {
		for give := time.Now().Add(deadline); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(give) {
				t.Errorf("%s within %v", what, deadline)
				return
			}
		}
	}

	// The honest worker answers its first request at once. A later
	// request that arrives before the liar's first answer has merged it
	// answers after that, so that the liar's first answer is a shard of
	// the first batch (2 or 3 configs) and the search reads its lie.
	// It answers a shard the liar also holds at once. Any other shard
	// it holds until the liar's quarantine is under way, so the liar
	// steals it and is caught on it.
	honest := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		mu.Lock()
		honestShards[req.Shard] = true
		liarHas := liarShards[req.Shard]
		mu.Unlock()
		switch {
		case honestRequests.Add(1) == 1:
		case merged(liarURL) == 0:
			waitFor(func() bool { return merged(liarURL) > 0 }, "the liar's first answer did not merge")
		case liarHas:
		default:
			holdOnce.Do(func() { close(holding) })
			if !await(reverifying, r, fmt.Sprintf("the liar was not caught on shard %d", req.Shard)) {
				return
			}
		}
		resp := ShardResponse{Shard: req.Shard}
		for _, a := range req.Configs {
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: obj(a)})
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	// The liar claims cost -1 (better than any true cost) wherever it
	// lies. Its first answer lies everywhere but on the sampled
	// configuration; a later shard it stole from the honest worker it
	// lies on throughout, which the audit catches; anything else it
	// answers honestly, once the honest worker holds a shard, so that
	// the liar cannot take every shard itself. Responses are
	// sequential, one coordinator goroutine per worker.
	var responses atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		first := responses.Add(1) == 1
		mu.Lock()
		liarShards[req.Shard] = true
		stolen := honestShards[req.Shard] && !first
		mu.Unlock()
		if !first && !stolen && !await(holding, r, "the honest worker did not hold a shard") {
			return
		}
		sampled := map[int]bool{}
		for _, i := range pickSample(ckSeed, req.Search, req.Shard, len(req.Configs), 1) {
			sampled[i] = true
		}
		resp := ShardResponse{Shard: req.Shard}
		for i, a := range req.Configs {
			cost := obj(a)
			if stolen || first && !sampled[i] {
				cost = -1
			}
			if first {
				mu.Lock()
				liarFirst[tuning.AssignKey(a)] = true
				mu.Unlock()
			}
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: cost})
		}
		if stolen {
			catchOnce.Do(func() { close(caught) })
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	honestURL, liarURL = honest.URL, liar.URL
	defer func() {
		honest.Close()
		liar.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	// Re-verifying the liar's first answer releases the honest worker
	// and waits until its answer to the stolen shard has merged: the
	// quarantine is still running when the batch completes. The honest
	// worker is held on that shard, so it has merged nothing since.
	local := func(a map[string]int) float64 {
		mu.Lock()
		slow := liarFirst[tuning.AssignKey(a)]
		mu.Unlock()
		if slow && closed(caught) {
			var before int64
			reverifyOnce.Do(func() {
				before = merged(honestURL)
				close(reverifying)
				waitFor(func() bool { return merged(honestURL) > before },
					"the honest worker's answer to the stolen shard did not merge")
			})
		}
		return obj(a)
	}

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Workers:        []string{honest.URL, liar.URL},
		LocalObjective: local,
		CrossCheck:     1,
		CrossCheckSeed: ckSeed,
		StealAfter:     20 * time.Millisecond,
		Collector:      c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged despite the quarantine:\n got %+v\nwant %+v", res, ref)
	}
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar.URL || st.Stolen < 1 {
		t.Fatalf("quarantined %v after %d steals, want the liar caught on a stolen shard", st.ByzantineQuarantined, st.Stolen)
	}
	if st.Corrected < 1 || st.Reruns != 1 {
		t.Fatalf("corrected %d, reruns %d: want the read lie corrected and one rerun", st.Corrected, st.Reruns)
	}
}

// TestQuarantinedLiarShardNotRedispatched: the shard a caught liar
// answered goes back to the honest worker, but no lease expired or
// failed, so neither Stats nor the fleet table report a re-dispatch;
// the quarantine is counted on its own.
func TestQuarantinedLiarShardNotRedispatched(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	liar := httptest.NewServer(liarHandler(obj, func(ShardRequest, int) bool { return true }))
	defer func() {
		liar.Close()
		http.DefaultClient.CloseIdleConnections()
	}()
	// The honest worker is slow, so the fast liar takes a shard.
	honest, _ := startWorker(t, func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			time.Sleep(10 * time.Millisecond)
			return obj(a)
		}, nil
	}, "")
	c := obs.New()
	_, st, err := Tune(context.Background(), tuning.RandomSearch{Seed: 1}, dims, start, 120, Options{
		Workers:        []string{honest, liar.URL},
		LocalObjective: obj,
		ShardSize:      4,
		Collector:      c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar.URL {
		t.Fatalf("quarantined %v, want the liar", st.ByzantineQuarantined)
	}
	if st.Redispatched != 0 {
		t.Fatalf("redispatched = %d, want 0: no lease expired or failed", st.Redispatched)
	}
	if table := report.FleetTable(c.Snapshot()); strings.Contains(table, "re-dispatched") {
		t.Fatalf("fleet table reports a re-dispatch:\n%s", table)
	}
}
