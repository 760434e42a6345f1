package sched

import "fmt"

// Var is a shared integer variable under scheduler control. All reads
// and writes go through a Context and are yield points as well as
// inputs to the happens-before race detector.
type Var struct {
	name    string
	id      int // dense object id, in declaration order
	value   int
	readVC  vclock // per-thread clock of the last read by that thread
	writeVC vclock // per-thread clock of the last write by that thread
}

// Name returns the variable's diagnostic name.
func (v *Var) Name() string { return v.name }

// Mutex is a shared lock under scheduler control. Lock/Unlock create
// happens-before edges between critical sections.
type Mutex struct {
	name   string
	id     int
	holder int // thread id, or -1
	vc     vclock
}

// Name returns the mutex's diagnostic name.
func (m *Mutex) Name() string { return m.name }

// Chan is a bounded FIFO channel under scheduler control. Sends block
// when full, receives when empty (until closed). Message hand-off
// creates the usual happens-before edges. Capacity must be at least 1;
// rendezvous channels are not modelled (the pattern runtime only uses
// bounded buffers).
type Chan struct {
	name string
	id   int
	// slots is the ring buffer: n messages starting at head. A slot's
	// clock storage is reused by later sends.
	slots   []chanMsg
	head, n int
	closed  bool
	spaceVC vclock // joined clocks of all receivers; orders send-after-free
}

type chanMsg struct {
	val int
	vc  vclock
}

// Name returns the channel's diagnostic name.
func (c *Chan) Name() string { return c.name }

// Len returns the current number of buffered messages. A thread's
// function must not depend on it: while the thread fast-forwards
// through a replayed prefix, the channel is not yet in that state.
func (c *Chan) Len() int { return c.n }

// World is the per-run universe of a program under test: its shared
// state, its threads and its final-state oracle. The body function
// passed to Explore declares them anew on every interleaving; while it
// declares the same objects as in the previous run, the World hands
// back that run's Var, Mutex and Chan values, reset in place.
type World struct {
	threads []threadSpec
	check   func(get func(*Var) int) error
	// objects counts the declared Vars, Mutexes and Chans; each gets
	// the next count as its id.
	objects int
	// decls are the objects declared so far, by id, from this run or
	// an earlier one; exactly one field of each is set.
	decls []decl
	// varSlab is the block new Vars are carved from.
	varSlab []Var
}

type decl struct {
	v  *Var
	m  *Mutex
	ch *Chan
}

type threadSpec struct {
	name string
	fn   func(*Context)
}

// reset empties w for the next run, keeping its declared objects.
func (w *World) reset() {
	clear(w.threads)
	w.threads = w.threads[:0]
	w.check = nil
	w.objects = 0
}

// newObject returns the next dense object id and the object the
// previous run declared with it, if any.
func (w *World) newObject() (int, *decl) {
	id := w.objects
	w.objects++
	if id == len(w.decls) {
		w.decls = append(w.decls, decl{})
	}
	return id, &w.decls[id]
}

// Var declares a shared variable with an initial value. The
// initialization happens-before every thread.
func (w *World) Var(name string, init int) *Var {
	id, d := w.newObject()
	v := d.v
	if v != nil && v.name == name {
		v.value = init
		clear(v.readVC)
		clear(v.writeVC)
	} else {
		if len(w.varSlab) == cap(w.varSlab) {
			w.varSlab = make([]Var, 0, 16)
		}
		w.varSlab = append(w.varSlab, Var{name: name, id: id, value: init})
		v = &w.varSlab[len(w.varSlab)-1]
		*d = decl{v: v}
	}
	return v
}

// Mutex declares a shared mutex.
func (w *World) Mutex(name string) *Mutex {
	id, d := w.newObject()
	m := d.m
	if m != nil && m.name == name {
		m.holder = -1
		clear(m.vc)
	} else {
		m = &Mutex{name: name, id: id, holder: -1}
		*d = decl{m: m}
	}
	return m
}

// Chan declares a bounded channel with the given capacity (>= 1).
func (w *World) Chan(name string, capacity int) *Chan {
	if capacity < 1 {
		panic(fmt.Sprintf("sched: Chan %q capacity %d; rendezvous channels are not modelled, capacity must be >= 1", name, capacity))
	}
	id, d := w.newObject()
	ch := d.ch
	if ch != nil && ch.name == name && len(ch.slots) == capacity {
		ch.head, ch.n, ch.closed = 0, 0, false
		clear(ch.spaceVC)
	} else {
		ch = &Chan{name: name, id: id, slots: make([]chanMsg, capacity)}
		*d = decl{ch: ch}
	}
	return ch
}

// Spawn registers a thread. Threads start when the body function
// returns; their ids are assigned in spawn order starting at 0.
func (w *World) Spawn(name string, fn func(*Context)) {
	w.threads = append(w.threads, threadSpec{name: name, fn: fn})
}

// Check registers the final-state oracle, evaluated after all threads
// finished. Returning a non-nil error records a Failure together with
// the schedule that produced it. This is how generated parallel unit
// tests compare the parallel outcome against the sequential result.
func (w *World) Check(fn func(get func(*Var) int) error) { w.check = fn }

// Context is a thread's handle to the controlled world. Every method
// is a yield point: the calling thread surrenders control to the
// scheduler, which decides when (and whether) the operation proceeds.
type Context struct {
	ex *execution
	t  *thread
}

// ThreadID returns the calling thread's id.
func (c *Context) ThreadID() int { return c.t.id }

// Read returns the current value of v.
func (c *Context) Read(v *Var) int {
	resp := c.yield(request{op: opRead, v: v})
	return resp.val
}

// Write stores x into v.
func (c *Context) Write(v *Var, x int) {
	c.yield(request{op: opWrite, v: v, val: x})
}

// Add performs v += x as an unsynchronized read-modify-write: two
// distinct yield points, exactly like `v = v + x` in real code. A
// concurrent Add on the same Var without a lock is a data race and a
// lost-update bug, which both the race detector and a final-state
// oracle can observe.
func (c *Context) Add(v *Var, x int) {
	cur := c.Read(v)
	c.Write(v, cur+x)
}

// Lock acquires m, blocking while another thread holds it.
func (c *Context) Lock(m *Mutex) {
	c.yield(request{op: opLock, m: m})
}

// Unlock releases m. Unlocking a mutex not held by the caller records
// a Failure and aborts the interleaving.
func (c *Context) Unlock(m *Mutex) {
	c.yield(request{op: opUnlock, m: m})
}

// Send enqueues x on ch, blocking while the buffer is full. Sending on
// a closed channel records a Failure and aborts the interleaving.
func (c *Context) Send(ch *Chan, x int) {
	c.yield(request{op: opSend, ch: ch, val: x})
}

// Recv dequeues from ch, blocking while it is empty. When ch is closed
// and drained, Recv returns (0, false).
func (c *Context) Recv(ch *Chan) (int, bool) {
	resp := c.yield(request{op: opRecv, ch: ch})
	return resp.val, resp.ok
}

// Close closes ch. Subsequent sends fail; receives drain the buffer
// and then return ok=false.
func (c *Context) Close(ch *Chan) {
	c.yield(request{op: opClose, ch: ch})
}

// Yield is a pure scheduling point with no shared-state effect.
func (c *Context) Yield() {
	c.yield(request{op: opYield})
}
