package sched

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// unbounded is the full, unreduced search: a preemption bound no run
// reaches never narrows a choice, while a negative bound would select
// the partial-order-reduced search.
func unbounded() Options { return Options{PreemptionBound: math.MaxInt} }

func TestRacyCounterFound(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		c := w.Var("counter", 0)
		w.Spawn("a", Add(c, 1))
		w.Spawn("b", Add(c, 1))
		w.Check(func(get func(*Var) int) error {
			if get(c) != 2 {
				return fmt.Errorf("counter = %d, want 2", get(c))
			}
			return nil
		})
	})
	if !res.Exhausted {
		t.Fatalf("expected exhaustive exploration, got %+v", res)
	}
	if len(res.Races) == 0 {
		t.Fatal("expected a data race on counter")
	}
	if len(res.Failures) == 0 {
		t.Fatal("expected the lost-update oracle failure")
	}
	if res.Schedules < 3 {
		t.Fatalf("2 threads x 2 ops should yield several interleavings, got %d", res.Schedules)
	}
}

func TestLockedCounterClean(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		c := w.Var("counter", 0)
		m := w.Mutex("m")
		inc := func() Thread { return Seq(Do(Lock(m)), Do(Read(c)), WriteSum(c, 1), Do(Unlock(m))) }
		w.Spawn("a", inc())
		w.Spawn("b", inc())
		w.Check(func(get func(*Var) int) error {
			if get(c) != 2 {
				return fmt.Errorf("counter = %d, want 2", get(c))
			}
			return nil
		})
	})
	if !res.Exhausted {
		t.Fatalf("expected exhaustive exploration, got truncated=%v", res.Truncated)
	}
	if res.Buggy() {
		t.Fatalf("locked counter should be clean, got races=%v failures=%v deadlocks=%v",
			res.Races, res.Failures, res.Deadlocks)
	}
}

func TestDeadlockDetected(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		m1 := w.Mutex("m1")
		m2 := w.Mutex("m2")
		w.Spawn("a", Ops(Lock(m1), Lock(m2), Unlock(m2), Unlock(m1)))
		w.Spawn("b", Ops(Lock(m2), Lock(m1), Unlock(m1), Unlock(m2)))
	})
	if len(res.Deadlocks) == 0 {
		t.Fatalf("expected deadlock, got %+v", res)
	}
	if !res.Exhausted {
		t.Fatal("expected exhaustive exploration")
	}
}

func TestProducerConsumerClean(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		data := w.Var("data", 0)
		sum := w.Var("sum", 0)
		ch := w.Chan("ch", 2)
		var produce []Op
		for i := 1; i <= 3; i++ {
			produce = append(produce, Write(data, i*10), Send(ch, i))
		}
		w.Spawn("producer", Ops(append(produce, Close(ch))...))
		// The consumer receives until the channel is closed and adds
		// each message to sum: receive, read sum, write it, repeat.
		pc, msg := 0, 0
		w.Spawn("consumer", StepFunc(func(prev Response) Op {
			switch pc {
			case 0:
				pc = 1
				return Recv(ch)
			case 1:
				if !prev.OK {
					return Exit
				}
				pc, msg = 2, prev.Val
				return Read(sum)
			default:
				pc = 0
				return Write(sum, prev.Val+msg)
			}
		}))
		w.Check(func(get func(*Var) int) error {
			if get(sum) != 6 {
				return fmt.Errorf("sum = %d, want 6", get(sum))
			}
			return nil
		})
	})
	if !res.Exhausted {
		t.Fatal("expected exhaustive exploration")
	}
	// data is written by the producer and never read by the consumer
	// after hand-off; sum is consumer-local. No races.
	if res.Buggy() {
		t.Fatalf("producer/consumer should be clean, got %+v", res)
	}
}

func TestChannelHandoffOrdersAccesses(t *testing.T) {
	// The producer writes x, then sends; the consumer receives, then
	// reads x. The channel hand-off orders the accesses: no race.
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		ch := w.Chan("ch", 1)
		w.Spawn("producer", Ops(Write(x, 42), Send(ch, 1)))
		w.Spawn("consumer", Seq(Do(Recv(ch)), Do(Read(x)), func(prev Response) Op {
			if prev.Val != 42 {
				panic("hand-off broken")
			}
			return Exit
		}))
	})
	if res.Buggy() {
		t.Fatalf("channel hand-off should order accesses, got %+v", res)
	}
}

func TestMissingHandoffIsRace(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		w.Spawn("writer", Ops(Write(x, 42)))
		w.Spawn("reader", Ops(Read(x)))
	})
	if len(res.Races) == 0 {
		t.Fatal("unsynchronized write/read must race")
	}
}

func TestRecvOnClosedChannel(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		ch := w.Chan("ch", 1)
		got := w.Var("got", -1)
		w.Spawn("closer", Ops(Send(ch, 7), Close(ch)))
		first, early := 0, false
		w.Spawn("reader", Seq(
			Do(Recv(ch)),
			func(prev Response) Op {
				if !prev.OK {
					early = true
					return Write(got, 100) // closed before the value: impossible (FIFO)
				}
				first = prev.Val
				return Recv(ch)
			},
			func(prev Response) Op {
				switch {
				case early:
					return Exit
				case prev.OK:
					return Write(got, 200)
				}
				return Write(got, first)
			},
		))
		w.Check(func(get func(*Var) int) error {
			if get(got) != 7 {
				return fmt.Errorf("got = %d, want 7", get(got))
			}
			return nil
		})
	})
	if res.Buggy() {
		t.Fatalf("close semantics broken: %+v", res)
	}
}

func TestSendOnClosedChannelFails(t *testing.T) {
	res := Explore(Options{PreemptionBound: math.MaxInt, StopAtFirstBug: true}, func(w *World) {
		ch := w.Chan("ch", 1)
		w.Spawn("a", Ops(Close(ch), Send(ch, 1)))
	})
	if len(res.Failures) == 0 {
		t.Fatalf("send on closed channel must fail, got %+v", res)
	}
}

func TestDoubleCloseFails(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		ch := w.Chan("ch", 1)
		w.Spawn("a", Ops(Close(ch), Close(ch)))
	})
	if len(res.Failures) == 0 {
		t.Fatal("double close must fail")
	}
}

func TestUnlockUnheldFails(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		m := w.Mutex("m")
		w.Spawn("a", Ops(Unlock(m)))
	})
	if len(res.Failures) == 0 {
		t.Fatal("unlock of unheld mutex must fail")
	}
}

func TestChanCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Chan with capacity 0 must panic")
		}
	}()
	Explore(unbounded(), func(w *World) {
		w.Chan("bad", 0)
	})
}

func TestPreemptionBoundReducesSchedules(t *testing.T) {
	body := func(w *World) {
		c := w.Var("c", 0)
		m := w.Mutex("m")
		inc := func() Thread {
			return Seq(Do(Lock(m)), Do(Read(c)), WriteSum(c, 1), Do(Unlock(m)),
				Do(Lock(m)), Do(Read(c)), WriteSum(c, 1), Do(Unlock(m)))
		}
		w.Spawn("a", inc())
		w.Spawn("b", inc())
	}
	full := Explore(unbounded(), body)
	b0 := Explore(Options{PreemptionBound: 0}, body)
	if !full.Exhausted || !b0.Exhausted {
		t.Fatalf("expected both explorations exhaustive: full=%+v b0=%+v", full, b0)
	}
	if b0.Schedules >= full.Schedules {
		t.Fatalf("preemption bound 0 explored %d schedules, unbounded %d; bound must shrink the space",
			b0.Schedules, full.Schedules)
	}
}

func TestPreemptionBoundStillFindsSimpleRace(t *testing.T) {
	// The unsynchronized counter race needs exactly one preemption
	// (between the read and the write of one Add).
	res := Explore(Options{PreemptionBound: 1}, func(w *World) {
		c := w.Var("c", 0)
		w.Spawn("a", Add(c, 1))
		w.Spawn("b", Add(c, 1))
		w.Check(func(get func(*Var) int) error {
			if get(c) != 2 {
				return fmt.Errorf("lost update: c = %d", get(c))
			}
			return nil
		})
	})
	if len(res.Races) == 0 || len(res.Failures) == 0 {
		t.Fatalf("bound-1 exploration should find the race and the lost update, got %+v", res)
	}
}

func TestStopAtFirstBug(t *testing.T) {
	res := Explore(Options{PreemptionBound: math.MaxInt, StopAtFirstBug: true}, func(w *World) {
		c := w.Var("c", 0)
		w.Spawn("a", Ops(Write(c, 1)))
		w.Spawn("b", Ops(Write(c, 2)))
	})
	if !res.Buggy() {
		t.Fatal("expected a bug")
	}
	if res.Exhausted {
		t.Fatal("StopAtFirstBug should halt before exhaustion")
	}
}

func TestMaxSchedulesTruncates(t *testing.T) {
	res := Explore(Options{PreemptionBound: math.MaxInt, MaxSchedules: 3}, func(w *World) {
		c := w.Var("c", 0)
		w.Spawn("a", Add(c, 1))
		w.Spawn("b", Add(c, 1))
	})
	if !res.Truncated || res.Schedules != 3 {
		t.Fatalf("expected truncation at 3 schedules, got %+v", res)
	}
}

func TestScheduleCountTwoIndependentOps(t *testing.T) {
	// Two threads with one op each on distinct vars: exactly 2
	// interleavings (AB, BA).
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		y := w.Var("y", 0)
		w.Spawn("a", Ops(Write(x, 1)))
		w.Spawn("b", Ops(Write(y, 1)))
	})
	if res.Schedules != 2 {
		t.Fatalf("Schedules = %d, want 2", res.Schedules)
	}
	if !res.Exhausted || res.Buggy() {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestScheduleCountInterleavingsFormula(t *testing.T) {
	// Two threads with k ops each interleave in C(2k, k) ways.
	// k=2 -> 6, k=3 -> 20.
	for _, tc := range []struct{ k, want int }{{1, 2}, {2, 6}, {3, 20}} {
		res := Explore(unbounded(), func(w *World) {
			x := w.Var("x", 0)
			y := w.Var("y", 0)
			var as, bs []Op
			for i := 0; i < tc.k; i++ {
				as = append(as, Write(x, i))
				bs = append(bs, Write(y, i))
			}
			w.Spawn("a", Ops(as...))
			w.Spawn("b", Ops(bs...))
		})
		if res.Schedules != tc.want {
			t.Errorf("k=%d: Schedules = %d, want %d", tc.k, res.Schedules, tc.want)
		}
	}
}

func TestThreeThreadLockedSumAllInterleavings(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		c := w.Var("c", 0)
		m := w.Mutex("m")
		for i := 0; i < 3; i++ {
			w.Spawn(fmt.Sprintf("t%d", i), Seq(Do(Lock(m)), Do(Read(c)), WriteSum(c, 1), Do(Unlock(m))))
		}
		w.Check(func(get func(*Var) int) error {
			if get(c) != 3 {
				return fmt.Errorf("c = %d, want 3", get(c))
			}
			return nil
		})
	})
	if !res.Exhausted || res.Buggy() {
		t.Fatalf("three locked increments should be clean and exhaustive, got %+v", res)
	}
}

func TestRaceKindsReported(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		w.Spawn("w1", Ops(Write(x, 1)))
		w.Spawn("w2", Ops(Write(x, 2)))
		w.Spawn("r", Ops(Read(x)))
	})
	kinds := map[string]bool{}
	for _, rc := range res.Races {
		kinds[rc.Kind] = true
		if rc.String() == "" {
			t.Error("empty race string")
		}
	}
	if !kinds["write-write"] {
		t.Errorf("missing write-write race: %v", res.Races)
	}
	if !kinds["write-read"] && !kinds["read-write"] {
		t.Errorf("missing read/write race: %v", res.Races)
	}
}

func TestNondeterministicBodyDetected(t *testing.T) {
	n := 0
	res := Explore(unbounded(), func(w *World) {
		n++
		x := w.Var("x", 0)
		y := w.Var("y", 0)
		local := n // varies between runs: nondeterministic
		// The first operation differs between runs, so any replayed
		// prefix that schedules thread a first diverges.
		w.Spawn("a", Ops(Write(x, local%2), Write(x, 9), Write(x, 9)))
		w.Spawn("b", Ops(Write(y, 1), Write(y, 2), Write(y, 3)))
	})
	if !res.Nondeterministic {
		t.Fatalf("expected nondeterminism detection after %d runs, got %+v", n, res)
	}
}

func TestMutexProtectsAgainstRaceDetectorFalsePositive(t *testing.T) {
	// Sequential lock-step access through a mutex in *every*
	// interleaving must produce zero race reports (no false positives
	// from the vector-clock analysis).
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		m := w.Mutex("m")
		for i := 0; i < 2; i++ {
			w.Spawn(fmt.Sprintf("t%d", i), Ops(Lock(m), Write(x, i), Read(x), Unlock(m)))
		}
	})
	if len(res.Races) != 0 {
		t.Fatalf("false positive races: %v", res.Races)
	}
}

func TestVClockOps(t *testing.T) {
	a := vclock(nil).reset(2)
	a = a.tick(0)
	a = a.tick(0)
	b := vclock(nil).reset(2)
	b = b.tick(1)
	if a.leq(b) || b.leq(a) {
		t.Fatal("independent clocks must be concurrent")
	}
	j := a.copyOf(2).join(b)
	if !a.leq(j) || !b.leq(j) {
		t.Fatal("join must dominate both operands")
	}
	if j.at(0) != 2 || j.at(1) != 1 || j.at(5) != 0 {
		t.Fatalf("join = %v", j)
	}
	c := vclock{1}.tick(3)
	if c.at(3) != 1 || len(c) != 4 {
		t.Fatalf("tick growth failed: %v", c)
	}
	if r := c.reset(2); len(r) != 2 || r.at(0) != 0 || &r[0] != &c[0] {
		t.Fatalf("reset must clear in place: %v", r)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[opKind]string{
		opExit: "exit", opRead: "read", opWrite: "write", opLock: "lock", opUnlock: "unlock",
		opSend: "send", opRecv: "recv", opClose: "close", opYield: "yield",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if opKind(99).String() != "op(99)" {
		t.Errorf("unknown op string: %q", opKind(99).String())
	}
}

func TestYieldAndNames(t *testing.T) {
	res := Explore(unbounded(), func(w *World) {
		v := w.Var("v", 3)
		m := w.Mutex("mx")
		ch := w.Chan("cc", 2)
		if v.Name() != "v" || m.Name() != "mx" || ch.Name() != "cc" || ch.Len() != 0 {
			panic("accessor broken")
		}
		w.Spawn("a", Ops(Yield(), Yield()))
	})
	if res.Buggy() || !res.Exhausted {
		t.Fatalf("unexpected %+v", res)
	}
}

// TestPanickingThreadReachesCaller: a thread's step runs on the
// caller's goroutine, so its panic reaches Explore's caller, who can
// recover it, and a later exploration runs normally.
func TestPanickingThreadReachesCaller(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		Explore(unbounded(), func(w *World) {
			x := w.Var("x", 0)
			w.Spawn("a", Ops(Write(x, 1)))
			w.Spawn("b", Seq(Do(Read(x)), func(Response) Op { panic("step failed") }))
		})
		return nil
	}()
	if got != "step failed" {
		t.Fatalf("recovered %v, want the thread's panic", got)
	}
	res := Explore(unbounded(), func(w *World) {
		x := w.Var("x", 0)
		w.Spawn("a", Ops(Write(x, 1)))
		w.Spawn("b", Ops(Read(x)))
	})
	if !res.Exhausted || res.Schedules != 2 || len(res.Races) != 2 {
		t.Fatalf("exploration after a panic: %+v", res)
	}
}

// TestThreadsRunOnCallersGoroutine: Explore starts no goroutine; every
// thread's steps run on the goroutine that called it.
func TestThreadsRunOnCallersGoroutine(t *testing.T) {
	caller := goroutine()
	steps := 0
	on := func(op Op) Step {
		return func(Response) Op {
			if g := goroutine(); g != caller {
				t.Errorf("a step ran on goroutine %s, Explore was called on %s", g, caller)
			}
			steps++
			return op
		}
	}
	res := Explore(Options{PreemptionBound: -1}, func(w *World) {
		x := w.Var("x", 0)
		ch := w.Chan("ch", 1)
		w.Spawn("a", Seq(on(Write(x, 1)), on(Send(ch, 1)), on(Exit)))
		w.Spawn("b", Seq(on(Recv(ch)), on(Read(x)), on(Exit)))
		w.Spawn("c", Seq(on(Write(x, 2)), on(Exit)))
	})
	if !res.Exhausted || res.Schedules < 2 || steps == 0 {
		t.Fatalf("want an exhaustive search of several runs, got %+v after %d steps", res, steps)
	}
}

// goroutine returns the id of the calling goroutine, as its stack
// trace's header names it.
func goroutine() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}
