package jobs

import (
	"math"
	"sync"
	"testing"
	"time"

	"patty/internal/evalcache"
	"patty/internal/obs"
	"patty/internal/tuning"
)

// fakeClock lets breaker tests step time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	const key = "repl.oil=8;"
	for i := 0; i < 2; i++ {
		if !b.Allow(key) {
			t.Fatalf("fault %d should not trip yet", i)
		}
		b.Record(key, true)
	}
	if b.State(key) != Closed {
		t.Fatal("two faults must stay Closed at threshold 3")
	}
	b.Record(key, true)
	if b.State(key) != Open {
		t.Fatal("third consecutive fault must trip Open")
	}
	if b.Allow(key) {
		t.Fatal("open breaker must short-circuit")
	}
	if q := b.Quarantined(); len(q) != 1 || q[0] != key {
		t.Fatalf("quarantined = %v", q)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	const key = "k"
	b.Record(key, true)
	b.Record(key, true)
	b.Record(key, false) // heal
	b.Record(key, true)
	b.Record(key, true)
	if b.State(key) != Closed {
		t.Fatal("non-consecutive faults must not trip")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	const key = "k"
	b.Record(key, true)
	if b.Allow(key) {
		t.Fatal("tripped key allowed before cooldown")
	}
	clk.advance(61 * time.Second)
	if !b.Allow(key) {
		t.Fatal("cooldown elapsed: one probe must be allowed")
	}
	if b.Allow(key) {
		t.Fatal("second concurrent probe must be refused while the first is in flight")
	}
	// Probe faults: reopen with doubled cooldown.
	b.Record(key, true)
	clk.advance(61 * time.Second)
	if b.Allow(key) {
		t.Fatal("doubled cooldown: 61s must not be enough after a failed probe")
	}
	clk.advance(60 * time.Second)
	if !b.Allow(key) {
		t.Fatal("doubled cooldown elapsed: probe expected")
	}
	// Probe heals: closed again.
	b.Record(key, false)
	if b.State(key) != Closed || len(b.Quarantined()) != 0 {
		t.Fatalf("healed probe must close the breaker: %v %v", b.State(key), b.Quarantined())
	}
}

func TestBreakerRestore(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Restore([]string{"a", "b"})
	if b.Allow("a") || b.Allow("b") {
		t.Fatal("restored keys must start quarantined")
	}
	if !b.Allow("c") {
		t.Fatal("unrelated keys must stay closed")
	}
	if q := b.Quarantined(); len(q) != 2 {
		t.Fatalf("quarantined = %v", q)
	}
}

func TestGuardObjectiveQuarantinesPersistentFault(t *testing.T) {
	c := obs.New()
	b, _ := newTestBreaker(3, time.Minute)
	b.Instrument(c)
	calls := 0
	obj := GuardObjective(b, nil, func(a map[string]int) float64 {
		calls++
		if a["x"] == 1 {
			return math.Inf(1) // persistent fault
		}
		return float64(10 + a["x"])
	})

	bad := map[string]int{"x": 1}
	if got := obj(bad); !math.IsInf(got, 1) {
		t.Fatalf("faulting config cost = %v", got)
	}
	if calls != 3 {
		t.Fatalf("persistent fault must be retried up to threshold: %d calls", calls)
	}
	key := tuning.AssignKey(bad)
	if b.State(key) != Open {
		t.Fatal("persistently faulting config must be quarantined")
	}
	calls = 0
	if got := obj(bad); !math.IsInf(got, 1) || calls != 0 {
		t.Fatalf("quarantined config must short-circuit: cost=%v calls=%d", got, calls)
	}
	if got := obj(map[string]int{"x": 2}); got != 12 {
		t.Fatalf("healthy config cost = %v", got)
	}
	snap := c.Snapshot()
	if snap.Counters["jobs.breaker.trips"] != 1 {
		t.Fatalf("trips counter = %d", snap.Counters["jobs.breaker.trips"])
	}
	if snap.Gauges["jobs.breaker.open"] != 1 {
		t.Fatalf("open gauge = %d", snap.Gauges["jobs.breaker.open"])
	}
}

func TestGuardObjectiveHealsTransientFault(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	attempts := 0
	obj := GuardObjective(b, nil, func(a map[string]int) float64 {
		attempts++
		if attempts == 1 {
			return math.Inf(1) // transient: first attempt faults
		}
		return 42
	})
	if got := obj(map[string]int{"x": 1}); got != 42 {
		t.Fatalf("transient fault must heal on retry, cost = %v", got)
	}
	if b.State(tuning.AssignKey(map[string]int{"x": 1})) != Closed {
		t.Fatal("healed config must stay Closed")
	}
}

// TestGuardObjectiveHealsTransientFaultWithStore: with the evaluation
// store between the guard and the measurement, the guard's retry of a
// transient fault measures again instead of being answered with the
// stored fault; the healed cost is what the store keeps and answers.
func TestGuardObjectiveHealsTransientFaultWithStore(t *testing.T) {
	store, err := evalcache.Open(t.TempDir(), evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	memo := tuning.Memo{Store: store, Program: "p", Seed: 1}
	b, _ := newTestBreaker(3, time.Minute)
	attempts := 0
	obj := GuardObjective(b, nil, memo.Wrap(func(a map[string]int) float64 {
		attempts++
		if attempts == 1 {
			return math.Inf(1) // transient: first attempt faults
		}
		return 42
	}))
	a := map[string]int{"x": 1}
	if got := obj(a); got != 42 {
		t.Fatalf("transient fault must heal on retry with a store attached, cost = %v", got)
	}
	if b.State(tuning.AssignKey(a)) != Closed {
		t.Fatal("healed config must stay Closed")
	}
	if got := obj(a); got != 42 || attempts != 2 {
		t.Fatalf("second evaluation: cost %v after %d measurements, want 42 answered by the store after 2", got, attempts)
	}
}

// TestGuardObjectiveReadsObservedVerdict: a run Observed turns into
// +Inf — here a panic — counts as a fault.
func TestGuardObjectiveReadsObservedVerdict(t *testing.T) {
	c := obs.New()
	o := &tuning.Observed{Collector: c}
	b, _ := newTestBreaker(2, time.Minute)
	panics := 0
	obj := GuardObjective(b, o, o.Wrap(func(a map[string]int) float64 {
		if a["x"] == 1 {
			panics++
			panic("workload crashed")
		}
		return 7
	}))
	if got := obj(map[string]int{"x": 1}); !math.IsInf(got, 1) {
		t.Fatalf("cost = %v", got)
	}
	if panics != 2 {
		t.Fatalf("threshold 2: want 2 attempts, got %d", panics)
	}
	if b.State(tuning.AssignKey(map[string]int{"x": 1})) != Open {
		t.Fatal("panicking config must trip the breaker")
	}
}

// TestBreakerTripsOnObservedBareInf: an Observed-wrapped objective
// that returns +Inf without panicking or losing work (the fault shim
// of `patty tune -fault-rate`) trips the breaker like any other fault.
func TestBreakerTripsOnObservedBareInf(t *testing.T) {
	o := &tuning.Observed{Collector: obs.New()}
	b, _ := newTestBreaker(3, time.Minute)
	calls := 0
	obj := GuardObjective(b, o, o.Wrap(func(a map[string]int) float64 {
		calls++
		return math.Inf(1)
	}))
	bad := map[string]int{"x": 1}
	if got := obj(bad); !math.IsInf(got, 1) {
		t.Fatalf("cost = %v, want +Inf", got)
	}
	if calls != 3 {
		t.Fatalf("threshold 3: want 3 attempts, got %d", calls)
	}
	if got := b.Quarantined(); len(got) != 1 || got[0] != tuning.AssignKey(bad) {
		t.Fatalf("quarantined %v, want [%s]", got, tuning.AssignKey(bad))
	}
}

// TestBreakerConcurrencySafe hammers one breaker from many goroutines;
// run under -race this is the data-race property test.
func TestBreakerConcurrencySafe(t *testing.T) {
	b := NewBreaker(3, time.Millisecond).Instrument(obs.New())
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(g+i)%len(keys)]
				if b.Allow(k) {
					b.Record(k, (g+i)%3 == 0)
				}
				if i%97 == 0 {
					b.Quarantined()
					b.State(k)
				}
			}
		}(g)
	}
	wg.Wait()
}
