package sched

import "fmt"

type opKind int

const (
	opExit opKind = iota // Exit's kind: the zero Op
	opRead
	opWrite
	opLock
	opUnlock
	opSend
	opRecv
	opClose
	opYield
)

func (k opKind) String() string {
	switch k {
	case opExit:
		return "exit"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opSend:
		return "send"
	case opRecv:
		return "recv"
	case opClose:
		return "close"
	case opYield:
		return "yield"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// String describes the operation for nondeterministic-replay reports.
func (r Op) String() string {
	var name string
	switch {
	case r.v != nil:
		name = r.v.name
	case r.m != nil:
		name = r.m.name
	case r.ch != nil:
		name = r.ch.name
	default:
		return r.kind.String()
	}
	if r.kind == opWrite || r.kind == opSend {
		return fmt.Sprintf("%s %q %d", r.kind, name, r.val)
	}
	return fmt.Sprintf("%s %q", r.kind, name)
}

// thread is one thread of the program under test in the current run:
// the Thread the world spawned and the engine's state for it. An
// exploration keeps its threads from run to run, clocks included.
type thread struct {
	Thread
	id   int
	name string
	vc   vclock
	// req is the thread's pending operation while pending[id] points
	// here.
	req  Op
	done bool // returned Exit
}

// execution is the per-run engine state, which an exploration reuses
// from run to run.
type execution struct {
	e       *explorer
	world   *World
	threads []thread
	// pending[tid] is tid's next operation, nil while it has none.
	pending []*Op
	live    int // threads not yet finished

	// decision state: branch points replayed or pushed, operations
	// executed, the thread that ran last and the preemptions so far
	branch, step, lastTid, preemptions int

	// races new to the exploration
	races []Race
	// failure of this run, if any
	failure *Failure
	// how the run ended; sleepBlocked: every enabled thread slept
	deadlock, nondet, aborted, sleepBlocked bool
	// slab is the block the objects' clocks are carved from
	slab []uint32
}

// fit returns c if it has an entry per thread, else a copy of c with
// that many entries, carved from the block the objects' clocks share.
// An object's clocks keep their storage from run to run.
func (ex *execution) fit(c vclock) vclock {
	n := len(ex.threads)
	if len(c) >= n {
		return c
	}
	if cap(c) >= n {
		old := len(c)
		c = c[:n]
		clear(c[old:])
		return c
	}
	k := len(ex.slab)
	if k+n > cap(ex.slab) {
		ex.slab, k = make([]uint32, 0, max(256, n)), 0
	}
	ex.slab = ex.slab[:k+n]
	out := vclock(ex.slab[k : k+n : k+n])
	copy(out, c)
	return out
}

// reset prepares ex for a run of world.
func (ex *execution) reset(world *World) {
	ex.world = world
	ex.races = ex.races[:0]
	ex.failure = nil
	ex.branch, ex.step, ex.lastTid, ex.preemptions = 0, 0, -1, 0
	ex.deadlock, ex.nondet, ex.aborted, ex.sleepBlocked = false, false, false, false
}

// start takes the world's threads for this run and asks each for its
// first operation.
func (ex *execution) start() {
	specs := ex.world.threads
	n := len(specs)
	ex.threads = grow(ex.threads, n)
	ex.pending = grow(ex.pending, n)
	clear(ex.pending)
	ex.live = n
	for i := range ex.threads {
		t := &ex.threads[i]
		t.Thread, t.id, t.name = specs[i].thread, i, specs[i].name
		t.vc = t.vc.reset(n)
		t.vc[i] = 1
		t.done = false
	}
	for i := range ex.threads {
		ex.next(&ex.threads[i], Response{})
	}
}

// next asks t for its operation after one that answered resp and
// makes it t's pending operation, or retires t once it returns Exit.
// It reports whether t posted an operation.
func (ex *execution) next(t *thread, resp Response) bool {
	op := t.Step(resp)
	if op.kind == opExit {
		t.done = true
		ex.live--
		return false
	}
	t.req = op
	ex.pending[t.id] = &t.req
	return true
}

// enabled reports whether a pending request can execute now.
func enabled(req *Op) bool {
	switch req.kind {
	case opLock:
		return req.m.holder == -1
	case opSend:
		return req.ch.closed || req.ch.n < len(req.ch.slots)
	case opRecv:
		return req.ch.n > 0 || req.ch.closed
	default:
		return true
	}
}

// apply executes t's operation req against the shared state and the
// clocks and builds the response; with check set it also runs the race
// detector. It reports false for an illegal operation, after recording
// the failure. Clocks owned by a Var, Mutex or Chan are updated in
// place once they have grown to the thread count, so a step allocates
// nothing.
func (ex *execution) apply(t *thread, req *Op, check bool) (Response, bool) {
	switch req.kind {
	case opYield:
		return Response{}, true
	case opRead:
		if check {
			ex.checkRead(t, req.v)
		}
		req.v.readVC = ex.fit(req.v.readVC)
		req.v.readVC[t.id] = t.vc.at(t.id)
		return Response{Val: req.v.value}, true
	case opWrite:
		if check {
			ex.checkWrite(t, req.v)
		}
		req.v.writeVC = ex.fit(req.v.writeVC)
		req.v.writeVC[t.id] = t.vc.at(t.id)
		req.v.value = req.val
		return Response{}, true
	case opLock:
		req.m.holder = t.id
		t.vc = t.vc.join(req.m.vc)
		return Response{}, true
	case opUnlock:
		if req.m.holder != t.id {
			ex.fail("thread %d (%s) unlocked mutex %q held by %d", t.id, t.name, req.m.name, req.m.holder)
			return Response{}, false
		}
		req.m.holder = -1
		req.m.vc = ex.fit(req.m.vc).join(t.vc)
		t.vc = t.vc.tick(t.id)
		return Response{}, true
	case opSend:
		ch := req.ch
		if ch.closed {
			ex.fail("thread %d (%s) sent on closed channel %q", t.id, t.name, ch.name)
			return Response{}, false
		}
		slot := &ch.slots[(ch.head+ch.n)%len(ch.slots)]
		slot.val = req.val
		slot.vc = ex.fit(slot.vc[:0])
		copy(slot.vc, t.vc)
		ch.n++
		// Order this send after the receives that freed buffer space.
		t.vc = t.vc.join(ch.spaceVC)
		t.vc = t.vc.tick(t.id)
		return Response{}, true
	case opRecv:
		ch := req.ch
		if ch.n == 0 {
			// enabled only because the channel is closed
			return Response{}, true
		}
		msg := &ch.slots[ch.head]
		ch.head = (ch.head + 1) % len(ch.slots)
		ch.n--
		t.vc = t.vc.join(msg.vc)
		ch.spaceVC = ex.fit(ch.spaceVC).join(t.vc)
		t.vc = t.vc.tick(t.id)
		return Response{Val: msg.val, OK: true}, true
	case opClose:
		if req.ch.closed {
			ex.fail("thread %d (%s) closed channel %q twice", t.id, t.name, req.ch.name)
			return Response{}, false
		}
		req.ch.closed = true
		return Response{}, true
	default:
		panic("sched: unknown op " + req.kind.String())
	}
}

func (ex *execution) fail(format string, args ...any) {
	if ex.failure == nil {
		ex.failure = &Failure{
			Msg:      fmt.Sprintf(format, args...),
			Schedule: ex.path(),
		}
	}
}

// nondeterministic abandons a run that diverged from the one it
// replays, recording the failure format describes.
func (ex *execution) nondeterministic(format string, args ...any) {
	ex.nondet = true
	ex.aborted = true
	ex.fail(format, args...)
}

// path returns the threads run so far, in order: the schedule that
// leads to the current state.
func (ex *execution) path() []int {
	if ex.step == 0 {
		return nil
	}
	out := make([]int, ex.step)
	for k := range out {
		out[k] = ex.e.log[k].tid
	}
	return out
}

// checkRead flags a write-read race: the last write to v by another
// thread is not ordered before this read.
func (ex *execution) checkRead(t *thread, v *Var) {
	for u := range v.writeVC {
		if u != t.id && v.writeVC[u] > t.vc.at(u) {
			ex.race(v, "write-read", u, t.id)
		}
	}
}

// checkWrite flags write-write and read-write races.
func (ex *execution) checkWrite(t *thread, v *Var) {
	for u := range v.writeVC {
		if u != t.id && v.writeVC[u] > t.vc.at(u) {
			ex.race(v, "write-write", u, t.id)
		}
	}
	for u := range v.readVC {
		if u != t.id && v.readVC[u] > t.vc.at(u) {
			ex.race(v, "read-write", u, t.id)
		}
	}
}

// raceKey identifies a race for deduplication across interleavings.
type raceKey struct {
	v, kind string
	a, b    int
}

// race records a race the exploration has not seen before, with the
// schedule that exhibits it.
func (ex *execution) race(v *Var, kind string, a, b int) {
	k := raceKey{v.name, kind, a, b}
	if ex.e.raceSeen[k] {
		return
	}
	ex.e.raceSeen[k] = true
	ex.races = append(ex.races, Race{
		Var:      v.name,
		Kind:     kind,
		Threads:  [2]int{a, b},
		Schedule: ex.path(),
	})
}
