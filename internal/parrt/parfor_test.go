package parrt

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func runFor(t *testing.T, ps *Params, pf *ParallelFor, n int) []int32 {
	t.Helper()
	hits := make([]int32, n)
	pf.For(n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	return hits
}

func checkExactlyOnce(t *testing.T, hits []int32) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times, want 1", i, h)
		}
	}
}

func TestParallelForStatic(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	ps.Set("parallelfor.t.schedule", int(StaticSchedule))
	checkExactlyOnce(t, runFor(t, ps, pf, 1000))
}

func TestParallelForDynamic(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	ps.Set("parallelfor.t.schedule", int(DynamicSchedule))
	ps.Set("parallelfor.t.chunksize", 7)
	checkExactlyOnce(t, runFor(t, ps, pf, 1000))
}

func TestParallelForGuided(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	ps.Set("parallelfor.t.schedule", int(GuidedSchedule))
	ps.Set("parallelfor.t.chunksize", 3)
	checkExactlyOnce(t, runFor(t, ps, pf, 1000))
}

func TestParallelForSequentialFallback(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	ps.Set("parallelfor.t."+keySequential, 1)
	order := make([]int, 0, 20)
	pf.For(20, func(i int) { order = append(order, i) }) // safe: inline
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential fallback out of order at %d: %d", i, v)
		}
	}
}

func TestParallelForShortLoopRunsInline(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	// minparallellen default 2: n=1 must run inline (appending without
	// synchronization would race otherwise and the race detector
	// would flag it).
	var got []int
	pf.For(1, func(i int) { got = append(got, i) })
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestParallelForZeroAndNegative(t *testing.T) {
	pf := NewParallelFor("t", NewParams(), 4)
	ran := false
	pf.For(0, func(int) { ran = true })
	pf.For(-5, func(int) { ran = true })
	if ran {
		t.Fatal("body executed for non-positive n")
	}
}

func TestParallelForEveryScheduleProperty(t *testing.T) {
	f := func(nRaw uint16, sched uint8, chunk uint8, workers uint8) bool {
		n := int(nRaw) % 500
		ps := NewParams()
		pf := NewParallelFor("p", ps, 8)
		ps.Set("parallelfor.p.schedule", int(sched)%3)
		ps.Set("parallelfor.p.chunksize", 1+int(chunk)%64)
		ps.Set("parallelfor.p.workers", 1+int(workers)%8)
		hits := make([]int32, n)
		pf.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	got := Reduce(pf, 1000, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	want := 999 * 1000 / 2
	if got != want {
		t.Fatalf("Reduce sum = %d, want %d", got, want)
	}
}

func TestReduceSequentialMatchesParallel(t *testing.T) {
	f := func(xs []int8) bool {
		ps := NewParams()
		pf := NewParallelFor("p", ps, 8)
		par := Reduce(pf, len(xs), 0, func(i int) int { return int(xs[i]) }, func(a, b int) int { return a + b })
		ps.Set("parallelfor.p."+keySequential, 1)
		seq := Reduce(pf, len(xs), 0, func(i int) int { return int(xs[i]) }, func(a, b int) int { return a + b })
		return par == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceEmpty(t *testing.T) {
	pf := NewParallelFor("t", NewParams(), 4)
	if got := Reduce(pf, 0, 42, func(int) int { return 1 }, func(a, b int) int { return a + b }); got != 42 {
		t.Fatalf("Reduce over empty = %d, want identity 42", got)
	}
}

func TestReduceMax(t *testing.T) {
	ps := NewParams()
	pf := NewParallelFor("t", ps, 4)
	xs := []int{3, 9, 1, 12, 7, 12, -4}
	got := Reduce(pf, len(xs), xs[0], func(i int) int { return xs[i] },
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
	if got != 12 {
		t.Fatalf("Reduce max = %d, want 12", got)
	}
}

func TestScheduleString(t *testing.T) {
	if StaticSchedule.String() != "static" || DynamicSchedule.String() != "dynamic" ||
		GuidedSchedule.String() != "guided" || Schedule(9).String() != "unknown" {
		t.Fatal("Schedule.String mismatch")
	}
}

// TestReduceEveryScheduleMatchesSequential: Reduce runs on the loop's
// own schedule, chunk size and worker count, and every combination
// folds to the sequential result; a float reduction, whose combine is
// not exactly associative, returns the same bits on repeated runs.
func TestReduceEveryScheduleMatchesSequential(t *testing.T) {
	const n = 1000
	seqInt := 0
	for i := 0; i < n; i++ {
		seqInt += i*i - 3*i
	}
	for _, sched := range []Schedule{StaticSchedule, DynamicSchedule, GuidedSchedule} {
		for _, chunk := range []int{1, 7, 64} {
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				ps := NewParams()
				pf := NewParallelFor("r", ps, 8)
				ps.Set("parallelfor.r.schedule", int(sched))
				ps.Set("parallelfor.r.chunksize", chunk)
				ps.Set("parallelfor.r.workers", workers)
				got := Reduce(pf, n, 0, func(i int) int { return i*i - 3*i }, func(a, b int) int { return a + b })
				if got != seqInt {
					t.Errorf("%v chunk %d workers %d: int sum %d, want %d", sched, chunk, workers, got, seqInt)
				}
				fsum := func() float64 {
					return Reduce(pf, n, 0.0, func(i int) float64 { return 1 / float64(i+1) }, func(a, b float64) float64 { return a + b })
				}
				first := fsum()
				for r := 0; r < 5; r++ {
					if again := fsum(); math.Float64bits(again) != math.Float64bits(first) {
						t.Fatalf("%v chunk %d workers %d: float sum %v then %v", sched, chunk, workers, first, again)
					}
				}
			}
		}
	}
}
