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

// thread is the runtime representation of one spawned thread.
type thread struct {
	id    int
	name  string
	ctx   Context
	grant chan response // receiving a grant hands this thread the baton
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

// execution is the per-run engine state. One goroutine at a time, the
// baton holder, reads and writes it: the explorer until it makes the
// first decision, then each thread in turn while it runs. The baton
// passes only through a channel operation (a grant, or the end
// signal), so every access is ordered after the previous holder's.
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
	// how the run ended
	deadlock, nondet, aborted bool
}

// start launches the thread goroutines. Each runs up to its first
// operation, reports it to the explorer and waits for its first grant.
func (ex *execution) start() {
	n := len(ex.world.threads)
	ex.threads = make([]*thread, n)
	ex.pending = make([]*request, n)
	ex.live = n
	for i, spec := range ex.world.threads {
		t := &thread{
			id:    i,
			name:  spec.name,
			grant: make(chan response),
			vc:    newClock(n),
		}
		t.vc[i] = 1
		t.ctx = Context{ex: ex, t: t}
		ex.threads[i] = t
	}
	ex.wg.Add(n)
	for i, spec := range ex.world.threads {
		t := ex.threads[i]
		fn := spec.fn
		go func() {
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
		}()
	}
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
	n := len(ex.threads)
	switch req.op {
	case opYield:
		return response{}
	case opRead:
		ex.checkRead(t, req.v)
		req.v.readVC = req.v.readVC.grow(n)
		req.v.readVC[t.id] = t.vc.at(t.id)
		return response{val: req.v.value}
	case opWrite:
		ex.checkWrite(t, req.v)
		req.v.writeVC = req.v.writeVC.grow(n)
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
		req.m.vc = req.m.vc.grow(n).join(t.vc)
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
		slot.vc = t.vc.copyInto(slot.vc, n)
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
		ch.spaceVC = ch.spaceVC.grow(n).join(t.vc)
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
