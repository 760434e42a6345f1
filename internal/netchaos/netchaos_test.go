package netchaos

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"patty/internal/obs"
	"patty/internal/ptest"
)

// itemClasses are the fault classes keyed to (site, arrival index) —
// everything except the time-based partition and the server-side
// throttle.
var itemClasses = []string{
	ClassLatency, ClassDrop, ClassTimeout, ClassTruncate,
	ClassCorrupt, ClassDuplicate, ClassReorder,
}

// TestGateSeedCoversAllClasses pins the gate plan's seed: every
// item-keyed fault class must fire within the first GateCoverageBudget
// arrivals at the /shards site. This is what lets `make netchaos`
// assert non-zero fleet.net.injected{class} counters for every class
// without flakiness — coverage is a provable property of the seed, not
// a hope about sampling.
func TestGateSeedCoversAllClasses(t *testing.T) {
	inj := New(GatePlan())
	seen := map[string]bool{}
	for item := 0; item < GateCoverageBudget; item++ {
		for _, c := range inj.Decide("/shards", item).Classes() {
			seen[c] = true
		}
	}
	for _, c := range itemClasses {
		if !seen[c] {
			t.Errorf("gate seed %d never fires %q in the first %d arrivals at /shards",
				GateSeed, c, GateCoverageBudget)
		}
	}
	// The partition window must open at t=0 so the first dispatch of a
	// gate run provably lands in it.
	p := GatePlan()
	if p.PartitionAfter != 0 || p.PartitionFor <= 0 {
		t.Fatalf("gate partition window must start at t=0: after=%v for=%v",
			p.PartitionAfter, p.PartitionFor)
	}
	if !p.partitioned(0) {
		t.Fatal("gate plan not partitioned at t=0")
	}
}

// TestDecideDeterministic: decisions are a pure function of
// (seed, site, item) — independent injector instances agree, and a
// different seed disagrees somewhere.
func TestDecideDeterministic(t *testing.T) {
	a, b := New(GatePlan()), New(GatePlan())
	other := GatePlan()
	other.Seed = GateSeed + 1
	c := New(other)
	diff := false
	for item := 0; item < 200; item++ {
		da, db := a.Decide("/shards", item), b.Decide("/shards", item)
		if da != db {
			t.Fatalf("item %d: same seed diverged: %+v vs %+v", item, da, db)
		}
		if da != c.Decide("/shards", item) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical decision streams")
	}
	// Site is part of the key: another path draws another stream.
	same := true
	for item := 0; item < 50; item++ {
		if a.Decide("/shards", item) != a.Decide("/other", item) {
			same = false
		}
	}
	if same {
		t.Fatal("different sites produced identical decision streams")
	}
}

// okServer returns a JSON-answering test server. Callers must `defer
// srv.Close()` AFTER their ptest.NoLeaks defer, so the server's accept
// and connection goroutines are gone before the leak check runs.
func okServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"ok": true, "pad": strings.Repeat("x", 64)})
	}))
}

func post(t *testing.T, client *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(`{"q":1}`))
	if err != nil {
		t.Fatal(err)
	}
	return client.Do(req)
}

// TestTransportDrop: DropRate 1 fails every request before any bytes
// flow.
func TestTransportDrop(t *testing.T) {
	defer ptest.NoLeaks(t)()
	var hits atomic.Int64
	srv := okServer(t, &hits)
	defer srv.Close()
	inj := New(Plan{Seed: 7, DropRate: 1})
	client := &http.Client{Transport: inj.Transport(nil)}
	if _, err := post(t, client, srv.URL+"/shards"); err == nil {
		t.Fatal("dropped request succeeded")
	}
	if hits.Load() != 0 {
		t.Fatalf("dropped request reached the server %d times", hits.Load())
	}
	if got := inj.Stats().Fired[ClassDrop]; got != 1 {
		t.Fatalf("drop count = %d, want 1", got)
	}
}

// TestTransportTimeout: TimeoutRate 1 black-holes the request until
// the caller's context expires; the server never sees it.
func TestTransportTimeout(t *testing.T) {
	defer ptest.NoLeaks(t)()
	var hits atomic.Int64
	srv := okServer(t, &hits)
	defer srv.Close()
	inj := New(Plan{Seed: 7, TimeoutRate: 1})
	client := &http.Client{Transport: inj.Transport(nil)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/shards", strings.NewReader("{}"))
	start := time.Now()
	_, err := client.Do(req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timeout returned before the context deadline")
	}
	if hits.Load() != 0 {
		t.Fatal("black-holed request reached the server")
	}
}

// TestTransportTruncate: the body is cut short — JSON decoding fails
// with an unexpected-EOF shape, as a mid-transfer connection loss
// would.
func TestTransportTruncate(t *testing.T) {
	defer ptest.NoLeaks(t)()
	srv := okServer(t, nil)
	defer srv.Close()
	inj := New(Plan{Seed: 7, TruncateRate: 1})
	client := &http.Client{Transport: inj.Transport(nil)}
	resp, err := post(t, client, srv.URL+"/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if derr := json.NewDecoder(resp.Body).Decode(&v); derr == nil {
		t.Fatal("decoding a truncated body succeeded")
	}
	if got := inj.Stats().Fired[ClassTruncate]; got != 1 {
		t.Fatalf("truncate count = %d, want 1", got)
	}
}

// TestTransportCorrupt: body length is intact but the payload is no
// longer valid JSON.
func TestTransportCorrupt(t *testing.T) {
	defer ptest.NoLeaks(t)()
	srv := okServer(t, nil)
	defer srv.Close()
	inj := New(Plan{Seed: 7, CorruptRate: 1})
	client := &http.Client{Transport: inj.Transport(nil)}
	resp, err := post(t, client, srv.URL+"/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatal("decoding a corrupted body succeeded")
	}
	var syn *json.SyntaxError
	if err := json.Unmarshal(body, &v); !errors.As(err, &syn) {
		t.Fatalf("corruption error = %v, want *json.SyntaxError", err)
	}
}

// TestTransportDuplicate: the request hits the wire twice; the caller
// still gets one well-formed response.
func TestTransportDuplicate(t *testing.T) {
	defer ptest.NoLeaks(t)()
	var hits atomic.Int64
	srv := okServer(t, &hits)
	defer srv.Close()
	inj := New(Plan{Seed: 7, DuplicateRate: 1})
	client := &http.Client{Transport: inj.Transport(nil)}
	resp, err := post(t, client, srv.URL+"/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("duplicated request's response undecodable: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", hits.Load())
	}
}

// TestTransportPartition: requests inside the window fail with
// ErrPartition and do not consume arrival indices, so the item-keyed
// decision stream stays aligned with requests that reach the wire.
func TestTransportPartition(t *testing.T) {
	defer ptest.NoLeaks(t)()
	var hits atomic.Int64
	srv := okServer(t, &hits)
	defer srv.Close()
	inj := New(Plan{Seed: 7, PartitionAfter: 0, PartitionFor: time.Hour})
	client := &http.Client{Transport: inj.Transport(nil)}
	for i := 0; i < 3; i++ {
		if _, err := post(t, client, srv.URL+"/shards"); !errors.Is(err, ErrPartition) {
			t.Fatalf("err = %v, want ErrPartition", err)
		}
	}
	if hits.Load() != 0 {
		t.Fatal("partitioned request reached the server")
	}
	st := inj.Stats()
	if st.Fired[ClassPartition] != 3 {
		t.Fatalf("partition count = %d, want 3", st.Fired[ClassPartition])
	}
	if st.Requests != 0 {
		t.Fatalf("partitioned requests consumed %d arrival indices, want 0", st.Requests)
	}
}

// TestPartitionWindows exercises the window arithmetic directly.
func TestPartitionWindows(t *testing.T) {
	p := Plan{PartitionAfter: 100 * time.Millisecond, PartitionFor: 50 * time.Millisecond, PartitionEvery: 200 * time.Millisecond}
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, {99 * time.Millisecond, false},
		{100 * time.Millisecond, true}, {149 * time.Millisecond, true},
		{150 * time.Millisecond, false}, {299 * time.Millisecond, false},
		{300 * time.Millisecond, true}, {349 * time.Millisecond, true},
		{350 * time.Millisecond, false},
	}
	for _, c := range cases {
		if got := p.partitioned(c.at); got != c.want {
			t.Errorf("partitioned(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	one := Plan{PartitionFor: 50 * time.Millisecond}
	if !one.partitioned(0) || one.partitioned(60*time.Millisecond) {
		t.Error("single window without PartitionEvery misbehaves")
	}
	if (Plan{}).partitioned(0) {
		t.Error("zero plan partitioned")
	}
}

// TestMiddlewareThrottle: server-side throttle answers 429 with
// Retry-After before the handler runs.
func TestMiddlewareThrottle(t *testing.T) {
	defer ptest.NoLeaks(t)()
	var hits atomic.Int64
	inj := New(Plan{Seed: 7, ThrottleRate: 1})
	srv := httptest.NewServer(inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/shards")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("throttled response missing Retry-After")
	}
	if hits.Load() != 0 {
		t.Fatal("throttled request reached the handler")
	}
	if got := inj.Stats().Fired[ClassThrottle]; got != 1 {
		t.Fatalf("throttle count = %d, want 1", got)
	}
}

// TestMiddlewareDrop: a server-side drop aborts the response so the
// client sees a transport error, not a clean status.
func TestMiddlewareDrop(t *testing.T) {
	defer ptest.NoLeaks(t)()
	inj := New(Plan{Seed: 7, DropRate: 1})
	srv := httptest.NewServer(inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/shards"); err == nil {
		t.Fatal("server-dropped request succeeded")
	}
}

// TestInstrument: fired faults mirror into the fleet.net.injected
// family on the collector.
func TestInstrument(t *testing.T) {
	defer ptest.NoLeaks(t)()
	c := obs.New()
	srv := okServer(t, nil)
	defer srv.Close()
	inj := New(Plan{Seed: 7, CorruptRate: 1}).Instrument(c)
	client := &http.Client{Transport: inj.Transport(nil)}
	resp, err := post(t, client, srv.URL+"/shards")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	snap := c.Snapshot()
	if got := snap.CounterFamilies["fleet.net.injected"][ClassCorrupt]; got != 1 {
		t.Fatalf("collector counter = %d, want 1", got)
	}
}

// TestNilInjector: a nil injector is a passthrough on both ends.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Transport(nil) != http.DefaultTransport {
		t.Fatal("nil injector transport is not the default transport")
	}
	h := http.NewServeMux()
	if got := inj.Middleware(h); got != http.Handler(h) {
		t.Fatal("nil injector middleware is not a passthrough")
	}
	if s := inj.Stats(); s.Requests != 0 || len(s.Fired) != 0 {
		t.Fatalf("nil injector stats = %+v", s)
	}
}

// TestPlanSpecRoundTrip: the ms-based wire form maps onto the
// executable plan.
func TestPlanSpecRoundTrip(t *testing.T) {
	spec := PlanSpec{
		Seed: 42, LatencyRate: 0.5, LatencyMs: 7, DropRate: 0.1,
		TimeoutRate: 0.2, TruncateRate: 0.3, CorruptRate: 0.4,
		DuplicateRate: 0.6, ReorderRate: 0.7, ReorderDelayMs: 9,
		ThrottleRate: 0.8, PartitionAfterMs: 11, PartitionForMs: 13,
		PartitionEveryMs: 17,
	}
	p := spec.Plan()
	if p.Seed != 42 || p.Latency != 7*time.Millisecond ||
		p.ReorderDelay != 9*time.Millisecond ||
		p.PartitionAfter != 11*time.Millisecond ||
		p.PartitionFor != 13*time.Millisecond ||
		p.PartitionEvery != 17*time.Millisecond ||
		p.ThrottleRate != 0.8 || p.DuplicateRate != 0.6 {
		t.Fatalf("PlanSpec.Plan mismatch: %+v", p)
	}
	// And the JSON tags survive a marshal cycle (CLI -net-chaos input).
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("PlanSpec JSON round trip: got %+v want %+v", back, spec)
	}
}

// TestPlanSpecValidate: a rate outside [0,1] or a negative millisecond
// field is rejected with an error naming the field.
func TestPlanSpecValidate(t *testing.T) {
	if err := GateSpec().Validate(); err != nil {
		t.Fatalf("gate spec rejected: %v", err)
	}
	for field, spec := range map[string]PlanSpec{
		"drop_rate":        {Seed: 1, DropRate: 5},
		"throttle_rate":    {ThrottleRate: -0.1},
		"latency_ms":       {LatencyMs: -1},
		"partition_for_ms": {PartitionForMs: -60},
	} {
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: error %v, want one naming %s", spec, err, field)
		}
	}
}

// TestMissingClasses lists unfired classes in stable order.
func TestMissingClasses(t *testing.T) {
	inj := New(Plan{Seed: 7})
	if got := len(inj.MissingClasses()); got != len(Classes) {
		t.Fatalf("fresh injector missing %d classes, want %d", got, len(Classes))
	}
	inj.count(ClassDrop)
	for _, c := range inj.MissingClasses() {
		if c == ClassDrop {
			t.Fatal("fired class still reported missing")
		}
	}
}
