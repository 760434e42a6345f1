package sched_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"patty/internal/ptest"
	"patty/internal/sched"
)

// TestEveryRunEndingLeavesNoGoroutine drives Explore through every way
// an interleaving can end — normal completion, deadlock, a first-bug
// stop, an illegal operation, every nondeterministic-replay check
// (including a run with more and one with fewer threads than the run
// it replays, and a replayed read that answers differently), an oracle failure and schedule-budget truncation, with
// and without partial-order reduction — and requires each exploration
// to return with every pooled thread goroutine gone and, under the
// reduction, no run sleep-blocked.
func TestEveryRunEndingLeavesNoGoroutine(t *testing.T) {
	// unbounded is the full search (a preemption bound no run
	// reaches), reduced the partial-order-reduced one.
	unbounded := sched.Options{PreemptionBound: math.MaxInt}
	reduced := sched.Options{PreemptionBound: -1}
	lockInversion := func() func(*sched.World) {
		return func(w *sched.World) {
			m1, m2 := w.Mutex("m1"), w.Mutex("m2")
			w.Spawn("a", func(ctx *sched.Context) {
				ctx.Lock(m1)
				ctx.Lock(m2)
				ctx.Unlock(m2)
				ctx.Unlock(m1)
			})
			w.Spawn("b", func(ctx *sched.Context) {
				ctx.Lock(m2)
				ctx.Lock(m1)
				ctx.Unlock(m1)
				ctx.Unlock(m2)
			})
		}
	}
	racyAdds := func() func(*sched.World) {
		return func(w *sched.World) {
			c := w.Var("c", 0)
			w.Spawn("a", func(ctx *sched.Context) { ctx.Add(c, 1) })
			w.Spawn("b", func(ctx *sched.Context) { ctx.Add(c, 1) })
		}
	}
	// The initial value of x changes between runs: every operation
	// repeats, but a replayed read answers other than in the run it
	// repeats.
	changingInit := func() func(*sched.World) {
		runs := 0
		return func(w *sched.World) {
			runs++
			x, y := w.Var("x", runs), w.Var("y", 0)
			w.Spawn("a", func(ctx *sched.Context) { ctx.Read(x); ctx.Write(y, 1) })
			w.Spawn("b", func(ctx *sched.Context) { ctx.Write(y, 2) })
		}
	}
	cases := []struct {
		name string
		opt  sched.Options
		body func() func(*sched.World)
		want func(sched.Result) error
	}{
		{
			// One thread never yields, one ends right after its first
			// grant, one runs several operations.
			name: "complete",
			opt:  unbounded,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					x := w.Var("x", 0)
					w.Spawn("idle", func(*sched.Context) {})
					w.Spawn("once", func(ctx *sched.Context) { ctx.Yield() })
					w.Spawn("many", func(ctx *sched.Context) {
						ctx.Write(x, 1)
						ctx.Read(x)
						ctx.Yield()
					})
				}
			},
			want: func(r sched.Result) error {
				if !r.Exhausted || r.Buggy() || r.Schedules < 2 {
					return fmt.Errorf("want a clean exhaustive search")
				}
				return nil
			},
		},
		{
			name: "deadlock",
			opt:  unbounded,
			body: lockInversion,
			want: exhaustiveDeadlock,
		},
		{
			name: "stop-at-first-bug",
			opt:  sched.Options{PreemptionBound: math.MaxInt, StopAtFirstBug: true},
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					c := w.Var("c", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Write(c, 1); ctx.Yield() })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(c, 2); ctx.Yield() })
				}
			},
			want: func(r sched.Result) error {
				if len(r.Races) == 0 || r.Exhausted {
					return fmt.Errorf("want a race and an early stop")
				}
				return nil
			},
		},
		{
			name: "unlock-unheld",
			opt:  unbounded,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					m := w.Mutex("m")
					x, y := w.Var("x", 0), w.Var("y", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Write(x, 1); ctx.Unlock(m) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(y, 1); ctx.Write(y, 2) })
				}
			},
			want: failureWith("unlocked mutex"),
		},
		{
			name: "send-on-closed",
			opt:  unbounded,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					ch := w.Chan("ch", 1)
					y := w.Var("y", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Close(ch); ctx.Send(ch, 1) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(y, 1); ctx.Write(y, 2) })
				}
			},
			want: failureWith("sent on closed channel"),
		},
		{
			name: "double-close",
			opt:  unbounded,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					ch := w.Chan("ch", 1)
					y := w.Var("y", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Close(ch); ctx.Close(ch) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(y, 1); ctx.Write(y, 2) })
				}
			},
			want: failureWith("closed channel \"ch\" twice"),
		},
		{
			// The first run has two threads, later runs three: the
			// replayed branch point sees a different enabled set.
			name: "nondeterministic-enabled-set",
			opt:  unbounded,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					n := 2
					if runs > 1 {
						n = 3
					}
					for i := 0; i < n; i++ {
						w.Spawn(fmt.Sprintf("t%d", i), func(ctx *sched.Context) { ctx.Read(x); ctx.Read(x) })
					}
				}
			},
			want: nondetWith("nondeterministic replay: enabled set"),
		},
		{
			// The first operation's value changes between runs, so the
			// replayed prefix executes a different operation.
			name: "nondeterministic-operation",
			opt:  unbounded,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x, y := w.Var("x", 0), w.Var("y", 0)
					local := runs
					w.Spawn("a", func(ctx *sched.Context) {
						ctx.Write(x, local%2)
						ctx.Write(x, 9)
						ctx.Write(x, 9)
					})
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(y, 1); ctx.Write(y, 2); ctx.Write(y, 3) })
				}
			},
			want: nondetWith("nondeterministic replay at step"),
		},
		{
			// From the third run on, b is gone, but the prefix the run
			// replays holds a step of b.
			name: "nondeterministic-fewer-threads",
			opt:  unbounded,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Read(x); ctx.Read(x) })
					if runs <= 2 {
						w.Spawn("b", func(ctx *sched.Context) { ctx.Read(x); ctx.Read(x) })
					}
				}
			},
			want: nondetWith("nondeterministic replay at step 1: no thread 1"),
		},
		{
			// From the second run on, a finishes after one read, before
			// the steps of it the replayed prefix still holds.
			name: "nondeterministic-early-finish",
			opt:  unbounded,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					reads := 3
					if runs > 1 {
						reads = 1
					}
					w.Spawn("a", func(ctx *sched.Context) {
						for range reads {
							ctx.Read(x)
						}
					})
					w.Spawn("b", func(ctx *sched.Context) { ctx.Read(x) })
				}
			},
			want: nondetWith("nondeterministic replay at step 1: thread 0 finished, expected read \"x\""),
		},
		{
			name: "nondeterministic-response",
			opt:  unbounded,
			body: changingInit,
			want: nondetWith("nondeterministic replay at step 0: thread 0's read \"x\" answered"),
		},
		{
			// Later runs lose a thread, so they end before consuming the
			// decision stack.
			name: "nondeterministic-early-end",
			opt:  unbounded,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Read(x) })
					if runs == 1 {
						w.Spawn("b", func(ctx *sched.Context) { ctx.Read(x) })
					}
				}
			},
			want: nondetWith("nondeterministic replay: run ended"),
		},
		{
			name: "oracle",
			opt:  unbounded,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					c := w.Var("c", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Add(c, 1) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Add(c, 1) })
					w.Check(func(get func(*sched.Var) int) error {
						if get(c) != 2 {
							return fmt.Errorf("lost update: c = %d", get(c))
						}
						return nil
					})
				}
			},
			want: failureWith("oracle: lost update"),
		},
		{
			name: "max-schedules",
			opt:  sched.Options{PreemptionBound: math.MaxInt, MaxSchedules: 3},
			body: racyAdds,
			want: truncatedAt(3),
		},
		{
			name: "reduced-deadlock",
			opt:  reduced,
			body: lockInversion,
			want: exhaustiveDeadlock,
		},
		{
			name: "reduced-unlock-unheld",
			opt:  reduced,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					m := w.Mutex("m")
					x, y := w.Var("x", 0), w.Var("y", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Write(x, 1); ctx.Unlock(m) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Lock(m); ctx.Write(y, 1); ctx.Unlock(m) })
				}
			},
			want: failureWith("unlocked mutex \"m\" held by 1"),
		},
		{
			name: "reduced-oracle",
			opt:  reduced,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					c := w.Var("c", 0)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Add(c, 1) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Add(c, 1) })
					w.Check(func(get func(*sched.Var) int) error {
						if get(c) != 2 {
							return fmt.Errorf("lost update: c = %d", get(c))
						}
						return nil
					})
				}
			},
			want: failureWith("oracle: lost update"),
		},
		{
			name: "reduced-stop-at-first-bug",
			opt:  sched.Options{PreemptionBound: -1, StopAtFirstBug: true},
			body: racyAdds,
			want: func(r sched.Result) error {
				if len(r.Races) == 0 || r.Exhausted || r.Schedules != 1 {
					return fmt.Errorf("want a race in the first run and an early stop")
				}
				return nil
			},
		},
		{
			name: "reduced-max-schedules",
			opt:  sched.Options{PreemptionBound: -1, MaxSchedules: 3},
			body: racyAdds,
			want: truncatedAt(3),
		},
		{
			// The first run ends when b sends after a's close. A run
			// that let b write before a's close would then end with
			// a's close, independent of that write, asleep and b's
			// send waiting on the full channel: its trace is the first
			// run's. The wakeup tree never starts it; another run
			// deadlocks.
			name: "reduced-sleep-blocked",
			opt:  reduced,
			body: func() func(*sched.World) {
				return func(w *sched.World) {
					x := w.Var("x", 0)
					ch := w.Chan("ch", 1)
					w.Spawn("a", func(ctx *sched.Context) { ctx.Send(ch, 1); ctx.Close(ch) })
					w.Spawn("b", func(ctx *sched.Context) { ctx.Write(x, 1); ctx.Send(ch, 2) })
				}
			},
			want: func(r sched.Result) error {
				if !r.Exhausted || len(r.Deadlocks) != 1 || len(r.Failures) != 1 {
					return fmt.Errorf("want an exhaustive search with one deadlock and one failure")
				}
				return nil
			},
		},
		{
			// Two writes of x race, so a second run replays the
			// first; it has a third thread.
			name: "reduced-nondeterministic-threads",
			opt:  reduced,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					n := 2
					if runs > 1 {
						n = 3
					}
					for i := 0; i < n; i++ {
						w.Spawn(fmt.Sprintf("t%d", i), func(ctx *sched.Context) { ctx.Write(x, i) })
					}
				}
			},
			want: nondetWith("nondeterministic replay: 3 threads, expected 2"),
		},
		{
			// As above, but the second run has one thread.
			name: "reduced-nondeterministic-fewer-threads",
			opt:  reduced,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					n := 2
					if runs > 1 {
						n = 1
					}
					for i := 0; i < n; i++ {
						w.Spawn(fmt.Sprintf("t%d", i), func(ctx *sched.Context) { ctx.Write(x, i) })
					}
				}
			},
			want: nondetWith("nondeterministic replay: 1 threads, expected 2"),
		},
		{
			// The second run reverses the writes of x at step 0, where
			// b now waits on an empty channel instead.
			name: "reduced-nondeterministic-enabled-set",
			opt:  reduced,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					ch := w.Chan("ch", 1)
					later := runs > 1
					w.Spawn("a", func(ctx *sched.Context) { ctx.Write(x, 1) })
					w.Spawn("b", func(ctx *sched.Context) {
						if later {
							ctx.Recv(ch)
						}
						ctx.Write(x, 2)
					})
				}
			},
			want: nondetWith("differs from the replayed run"),
		},
		{
			// In the first run b receives a's message and then writes
			// x after a does, so the second run takes b at step 1. In
			// the second, both threads stop after a's send at step 0.
			name: "reduced-nondeterministic-early-end",
			opt:  reduced,
			body: func() func(*sched.World) {
				runs := 0
				return func(w *sched.World) {
					runs++
					x := w.Var("x", 0)
					ch := w.Chan("ch", 1)
					first := runs == 1
					w.Spawn("a", func(ctx *sched.Context) {
						ctx.Send(ch, 1)
						if first {
							ctx.Write(x, 1)
						}
					})
					w.Spawn("b", func(ctx *sched.Context) {
						if first {
							ctx.Recv(ch)
							ctx.Write(x, 2)
						}
					})
				}
			},
			want: nondetWith("nondeterministic replay: run ended after 1 steps, expected more than 1"),
		},
		{
			name: "reduced-nondeterministic-response",
			opt:  reduced,
			body: changingInit,
			want: nondetWith("nondeterministic replay at step 0: thread 0's read \"x\" answered"),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer ptest.NoLeaks(t)()
			res, blocked := sched.ExploreBlocked(tc.opt, tc.body())
			if err := tc.want(res); err != nil {
				t.Fatalf("%v, got %+v", err, res)
			}
			if blocked != 0 {
				t.Fatalf("%d of %d runs ended sleep-blocked", blocked, res.Schedules)
			}
		})
	}
}

// exhaustiveDeadlock expects a deadlock found by an exhaustive search.
func exhaustiveDeadlock(r sched.Result) error {
	if len(r.Deadlocks) == 0 || !r.Exhausted {
		return fmt.Errorf("want a deadlock in an exhaustive search")
	}
	return nil
}

// truncatedAt expects the search cut by MaxSchedules n.
func truncatedAt(n int) func(sched.Result) error {
	return func(r sched.Result) error {
		if !r.Truncated || r.Schedules != n {
			return fmt.Errorf("want truncation at %d schedules", n)
		}
		return nil
	}
}

// failureWith expects a Failure whose message contains msg.
func failureWith(msg string) func(sched.Result) error {
	return func(r sched.Result) error {
		for _, f := range r.Failures {
			if strings.Contains(f.Msg, msg) {
				return nil
			}
		}
		return fmt.Errorf("want a failure containing %q", msg)
	}
}

// nondetWith expects nondeterminism reported with a Failure whose
// message contains msg.
func nondetWith(msg string) func(sched.Result) error {
	return func(r sched.Result) error {
		if !r.Nondeterministic {
			return fmt.Errorf("want nondeterminism")
		}
		return failureWith(msg)(r)
	}
}
