package parrt

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"patty/internal/obs"
)

func TestMasterWorkerOrdered(t *testing.T) {
	ps := NewParams()
	c := obs.New()
	mw := NewMasterWorker("t", ps, 4, func(x int) int { return x * x }).Instrument(c)
	tasks := make([]int, 50)
	for i := range tasks {
		tasks[i] = i
	}
	out := mw.Process(tasks)
	if len(out) != 50 {
		t.Fatalf("got %d results, want 50", len(out))
	}
	for i, r := range out {
		if r != i*i {
			t.Errorf("out[%d] = %d, want %d", i, r, i*i)
		}
	}
	as := obs.Analyze(c.Snapshot())
	if len(as) != 1 || as[0].Items != 50 {
		t.Fatalf("analyses = %+v, want one pattern with 50 items", as)
	}
	var perWorker int64
	for _, w := range as[0].Workers {
		perWorker += w.Items
	}
	if perWorker != 50 {
		t.Fatalf("worker items sum to %d, want 50", perWorker)
	}
}

func TestMasterWorkerUnorderedComplete(t *testing.T) {
	ps := NewParams()
	ps.Set("masterworker.t.orderpreservation", 0)
	mw := NewMasterWorker("t", ps, 4, func(x int) int {
		if x%5 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		return x + 1
	})
	tasks := make([]int, 60)
	for i := range tasks {
		tasks[i] = i
	}
	out := mw.Process(tasks)
	seen := make(map[int]bool)
	for _, r := range out {
		if seen[r] {
			t.Fatalf("duplicate result %d", r)
		}
		seen[r] = true
	}
	if len(seen) != 60 {
		t.Fatalf("got %d distinct results, want 60", len(seen))
	}
}

func TestMasterWorkerSequentialFallback(t *testing.T) {
	ps := NewParams()
	var maxConc, cur atomic.Int32
	mw := NewMasterWorker("t", ps, 8, func(x int) int {
		c := cur.Add(1)
		for {
			m := maxConc.Load()
			if c <= m || maxConc.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(10 * time.Microsecond)
		cur.Add(-1)
		return x
	})
	ps.Set("masterworker.t."+keySequential, 1)
	tasks := make([]int, 30)
	mw.Process(tasks)
	if maxConc.Load() != 1 {
		t.Fatalf("sequential mode observed concurrency %d, want 1", maxConc.Load())
	}
}

func TestMasterWorkerShortTaskListRunsInline(t *testing.T) {
	ps := NewParams()
	mw := NewMasterWorker("t", ps, 8, func(x int) int { return -x })
	// Default minparallellen is 2; a single task runs inline.
	out := mw.Process([]int{7})
	if len(out) != 1 || out[0] != -7 {
		t.Fatalf("out = %v, want [-7]", out)
	}
}

func TestMasterWorkerWorkerCountParam(t *testing.T) {
	ps := NewParams()
	var maxConc, cur atomic.Int32
	mw := NewMasterWorker("t", ps, 8, func(x int) int {
		c := cur.Add(1)
		for {
			m := maxConc.Load()
			if c <= m || maxConc.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return x
	})
	ps.Set("masterworker.t.workers", 2)
	tasks := make([]int, 40)
	mw.Process(tasks)
	if got := maxConc.Load(); got > 2 {
		t.Fatalf("observed concurrency %d, want <= 2", got)
	}
}

func TestMasterWorkerEmptyTasks(t *testing.T) {
	mw := NewMasterWorker("t", NewParams(), 4, func(x int) int { return x })
	if out := mw.Process(nil); len(out) != 0 {
		t.Fatalf("Process(nil) = %v", out)
	}
}

func TestNewMasterWorkerPanicsOnNilWork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMasterWorker[int, int]("bad", NewParams(), 4, nil)
}

func TestMasterWorkerSemanticsProperty(t *testing.T) {
	// Property: parallel results equal sequential map under any
	// worker count and ordering flag.
	f := func(xs []int16, workers uint8, ordered bool) bool {
		ps := NewParams()
		mw := NewMasterWorker("p", ps, 8, func(x int16) int { return int(x) * 3 })
		ps.Set("masterworker.p.workers", 1+int(workers)%8)
		ord := 0
		if ordered {
			ord = 1
		}
		ps.Set("masterworker.p.orderpreservation", ord)
		out := mw.Process(xs)
		if len(out) != len(xs) {
			return false
		}
		if ordered {
			for i, x := range xs {
				if out[i] != int(x)*3 {
					return false
				}
			}
			return true
		}
		// Multiset equality via sorted copies.
		counts := make(map[int]int)
		for _, x := range xs {
			counts[int(x)*3]++
		}
		for _, r := range out {
			counts[r]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
