package tuning

import (
	"math"
	"testing"

	"patty/internal/evalcache"
	"patty/internal/obs"
)

// TestObservedFaultPenalized: a panicking objective and a run that
// drops items both cost +Inf, while healed retries keep the measured
// cost untouched.
func TestObservedFaultPenalized(t *testing.T) {
	c := obs.New()
	o := &Observed{Collector: c}

	// Panicking objective: the tuning loop must survive.
	crash := o.Wrap(func(a map[string]int) float64 { panic("worker died") })
	if cost := crash(map[string]int{"k": 1}); !math.IsInf(cost, 1) {
		t.Fatalf("panicking objective cost = %v, want +Inf", cost)
	}

	// Lost work in the fault counters taints the measurement.
	lossy := o.Wrap(func(a map[string]int) float64 {
		p := c.Pattern(obs.KindParallelFor, "p", nil, 0)
		p.Wall.Add(1000)
		p.Faults.Errors.Add(2)
		return 1000
	})
	if cost := lossy(map[string]int{"k": 2}); !math.IsInf(cost, 1) {
		t.Fatalf("lossy run cost = %v, want +Inf", cost)
	}

	// Healed retries are not lost work: real cost, not penalized.
	healed := o.Wrap(func(a map[string]int) float64 {
		p := c.Pattern(obs.KindParallelFor, "p", nil, 0)
		p.Wall.Add(1000)
		p.Faults.Retries.Add(5)
		return 1000
	})
	if cost := healed(map[string]int{"k": 3}); cost != 1000 {
		t.Fatalf("healed run cost = %v, want 1000", cost)
	}
}

// TestMemoWrapAndCorrect: Memo.Wrap measures a configuration once and
// answers it from the store afterwards, except a fault, which is never
// stored and so measured again every time; Correct replaces a stored
// cost; a Memo without a Program never touches the store.
func TestMemoWrapAndCorrect(t *testing.T) {
	c := obs.New()
	store, err := evalcache.Open(t.TempDir(), evalcache.Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := Memo{Store: store, Program: "p", Seed: 3, Tenant: "alice"}
	calls := 0
	obj := m.Wrap(func(a map[string]int) float64 {
		calls++
		if a["x"] == 2 {
			return math.Inf(1)
		}
		return float64(10 * a["x"])
	})
	for round := 0; round < 2; round++ {
		if got := obj(map[string]int{"x": 1}); got != 10 {
			t.Fatalf("round %d: cost %v, want 10", round, got)
		}
		if got := obj(map[string]int{"x": 2}); !math.IsInf(got, 1) {
			t.Fatalf("round %d: faulted cost %v, want +Inf", round, got)
		}
	}
	snap := c.Snapshot()
	if calls != 3 || snap.Counters["cache.hits"] != 1 || snap.Counters["cache.misses"] != 3 ||
		snap.CounterFamilies["cache.tenant.hits"]["alice"] != 1 || store.Len() != 1 {
		t.Fatalf("calls %d, counters %v, tenant hits %v", calls, snap.Counters, snap.CounterFamilies["cache.tenant.hits"])
	}

	m.Correct(NewRecord(map[string]int{"x": 1}, 7))
	if rec, ok := m.Get(map[string]int{"x": 1}); !ok || rec.EffectiveCost() != 7 {
		t.Fatalf("corrected record %+v (found %v), want cost 7", rec, ok)
	}
	m.Correct(NewRecord(map[string]int{"x": 1}, math.NaN()))
	if _, ok := m.Get(map[string]int{"x": 1}); ok {
		t.Fatal("a faulted correction was answered as a hit")
	}
	off := Memo{Store: store}
	off.Put(NewRecord(map[string]int{"x": 9}, 1))
	if _, ok := off.Get(map[string]int{"x": 9}); ok || store.Len() != 1 {
		t.Fatalf("a Memo without a Program used the store (%d entries)", store.Len())
	}
}
