package sched

import (
	"fmt"
	"sync"
)

type opKind int

const (
	opRead opKind = iota
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

type request struct {
	op  opKind
	v   *Var
	m   *Mutex
	ch  *Chan
	val int
}

type response struct {
	val   int
	ok    bool
	abort bool
}

// message is a thread's first report to the explorer: its first
// request is waiting in thread.req, or the thread finished without
// yielding at all.
type message struct {
	tid  int
	done bool
}

// thread is one thread of the program under test. An exploration
// keeps its threads, and their goroutines, from run to run: between
// runs a thread's goroutine waits for its next function on job,
// keeping its grown stack.
type thread struct {
	id    int
	name  string
	ctx   Context
	job   chan func(*Context) // the thread's function for the next run
	grant chan response       // receiving a grant hands this thread the baton
	vc    vclock
	// req is the thread's pending operation while pending[id] points
	// here.
	req     request
	started bool // the first request went to the explorer
	done    bool // finished, or ended the run itself: never granted again
	aborted bool // unwinding: any further operation panics at once
}

// abortPanic unwinds a thread whose interleaving was abandoned
// (deadlock, first-bug stop, or oracle abort).
type abortPanic struct{}

// execution is the per-run engine state, which an exploration reuses
// from run to run. One goroutine at a time, the baton holder, reads
// and writes it: the explorer until it makes the first decision, then
// each thread in turn while it runs. The baton passes only through a
// channel operation (a grant, or the end signal), so every access is
// ordered after the previous holder's.
type execution struct {
	e       *explorer
	world   *World
	threads []*thread
	first   chan message  // first requests, collected by the explorer
	end     chan struct{} // the holder that ends the run signals here
	wg      sync.WaitGroup
	// pending[tid] is tid's next operation, nil while it has none.
	pending []*request
	live    int // threads not yet finished

	// decision state: branch points replayed or pushed, operations
	// executed, the thread that ran last and the preemptions so far
	branch, step, lastTid, preemptions int

	// races new to the exploration
	races []Race
	// failure of this run, if any
	failure *Failure
	// the schedule so far: granted thread ids in order
	trace []int
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
	ex.trace = ex.trace[:0]
	ex.branch, ex.step, ex.lastTid, ex.preemptions = 0, 0, -1, 0
	ex.deadlock, ex.nondet, ex.aborted, ex.sleepBlocked = false, false, false, false
}

// start hands every thread its function for this run, starting the
// goroutines the exploration does not have yet. Each thread runs up to
// its first operation, reports it to the explorer and waits for its
// first grant.
func (ex *execution) start() {
	e := ex.e
	n := len(ex.world.threads)
	for len(e.pool) < n {
		t := &thread{
			id:    len(e.pool),
			job:   make(chan func(*Context), 1),
			grant: make(chan response),
		}
		t.ctx = Context{ex: ex, t: t}
		e.pool = append(e.pool, t)
		e.workers.Add(1)
		go t.serve(&e.workers)
	}
	ex.threads = e.pool[:n]
	ex.pending = grow(ex.pending, n)
	clear(ex.pending)
	ex.live = n
	for i, t := range ex.threads {
		t.name = ex.world.threads[i].name
		t.vc = t.vc.reset(n)
		t.vc[i] = 1
		t.started, t.done, t.aborted = false, false, false
	}
	ex.wg.Add(n)
	for i, t := range ex.threads {
		t.job <- ex.world.threads[i].fn
	}
}

// serve runs t's function once per run until the exploration closes
// job.
func (t *thread) serve(workers *sync.WaitGroup) {
	defer workers.Done()
	for fn := range t.job {
		t.run(fn)
	}
}

// run runs fn as t for one run and retires t.
func (t *thread) run(fn func(*Context)) {
	ex := t.ctx.ex
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok {
				panic(r)
			}
		}
		ex.wg.Done()
	}()
	fn(&t.ctx)
	ex.finish(t)
}

// yield is the thread side of the scheduling protocol. The calling
// thread holds the baton: it posts its request and makes the next
// decision itself. Chosen again, it continues at once; otherwise it
// grants the chosen thread and waits for its own turn.
func (c *Context) yield(req request) response {
	t, ex := c.t, c.ex
	if t.aborted {
		panic(abortPanic{}) // an operation deferred in an unwinding thread
	}
	t.req = req
	if !t.started {
		t.started = true
		ex.first <- message{tid: t.id}
		return t.wait()
	}
	ex.pending[t.id] = &t.req
	if p := ex.e.por; p != nil && ex.step > p.replay {
		p.posted(ex, t.id)
	}
	next, resp := ex.schedule()
	if next == t.id {
		return resp
	}
	if next < 0 {
		// The run is over; the explorer unwinds the others.
		t.done = true
		t.aborted = true
		ex.end <- struct{}{}
		panic(abortPanic{})
	}
	ex.threads[next].grant <- resp
	return t.wait()
}

// finish retires t once its function has returned, then makes the
// next decision with the baton it still holds.
func (ex *execution) finish(t *thread) {
	if !t.started {
		ex.first <- message{tid: t.id, done: true}
		return
	}
	t.done = true
	ex.live--
	next, resp := ex.schedule()
	if next < 0 {
		ex.end <- struct{}{}
		return
	}
	ex.threads[next].grant <- resp
}

// wait blocks until t is granted the baton.
func (t *thread) wait() response {
	resp := <-t.grant
	if resp.abort {
		t.aborted = true
		panic(abortPanic{})
	}
	return resp
}

// enabled reports whether a pending request can execute now.
func enabled(req *request) bool {
	switch req.op {
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

// apply executes t's pending request against the shared state, runs
// the race detector, and builds the response. A response with
// abort=true also records the failure that caused it. Clocks owned by
// a Var, Mutex or Chan are updated in place once they have grown to
// the thread count, so a step allocates nothing.
func (ex *execution) apply(t *thread, req *request) response {
	switch req.op {
	case opYield:
		return response{}
	case opRead:
		ex.checkRead(t, req.v)
		req.v.readVC = ex.fit(req.v.readVC)
		req.v.readVC[t.id] = t.vc.at(t.id)
		return response{val: req.v.value}
	case opWrite:
		ex.checkWrite(t, req.v)
		req.v.writeVC = ex.fit(req.v.writeVC)
		req.v.writeVC[t.id] = t.vc.at(t.id)
		req.v.value = req.val
		return response{}
	case opLock:
		req.m.holder = t.id
		t.vc = t.vc.join(req.m.vc)
		return response{}
	case opUnlock:
		if req.m.holder != t.id {
			ex.fail("thread %d (%s) unlocked mutex %q held by %d", t.id, t.name, req.m.name, req.m.holder)
			return response{abort: true}
		}
		req.m.holder = -1
		req.m.vc = ex.fit(req.m.vc).join(t.vc)
		t.vc = t.vc.tick(t.id)
		return response{}
	case opSend:
		ch := req.ch
		if ch.closed {
			ex.fail("thread %d (%s) sent on closed channel %q", t.id, t.name, ch.name)
			return response{abort: true}
		}
		slot := &ch.slots[(ch.head+ch.n)%len(ch.slots)]
		slot.val = req.val
		slot.vc = ex.fit(slot.vc[:0])
		copy(slot.vc, t.vc)
		ch.n++
		// Order this send after the receives that freed buffer space.
		t.vc = t.vc.join(ch.spaceVC)
		t.vc = t.vc.tick(t.id)
		return response{}
	case opRecv:
		ch := req.ch
		if ch.n == 0 {
			// enabled only because the channel is closed
			return response{ok: false}
		}
		msg := &ch.slots[ch.head]
		ch.head = (ch.head + 1) % len(ch.slots)
		ch.n--
		t.vc = t.vc.join(msg.vc)
		ch.spaceVC = ex.fit(ch.spaceVC).join(t.vc)
		t.vc = t.vc.tick(t.id)
		return response{val: msg.val, ok: true}
	case opClose:
		if req.ch.closed {
			ex.fail("thread %d (%s) closed channel %q twice", t.id, t.name, req.ch.name)
			return response{abort: true}
		}
		req.ch.closed = true
		return response{}
	default:
		panic("sched: unknown op " + req.op.String())
	}
}

func (ex *execution) fail(format string, args ...any) {
	if ex.failure == nil {
		ex.failure = &Failure{
			Msg:      fmt.Sprintf(format, args...),
			Schedule: append([]int(nil), ex.trace...),
		}
	}
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
		Schedule: append([]int(nil), ex.trace...),
	})
}
