package sched

import "fmt"

// Var is a shared integer variable under scheduler control. All reads
// and writes go through a Context and are yield points as well as
// inputs to the happens-before race detector.
type Var struct {
	name    string
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

// Len returns the current number of buffered messages.
func (c *Chan) Len() int { return c.n }

// World is the per-run universe of a program under test: its shared
// state, its threads and its final-state oracle. The body function
// passed to Explore receives a fresh World on every interleaving.
type World struct {
	vars    []*Var
	threads []*threadSpec
	check   func(get func(*Var) int) error
}

type threadSpec struct {
	name string
	fn   func(*Context)
}

// Var declares a shared variable with an initial value. The
// initialization happens-before every thread.
func (w *World) Var(name string, init int) *Var {
	v := &Var{name: name, value: init}
	w.vars = append(w.vars, v)
	return v
}

// Mutex declares a shared mutex.
func (w *World) Mutex(name string) *Mutex {
	return &Mutex{name: name, holder: -1}
}

// Chan declares a bounded channel with the given capacity (>= 1).
func (w *World) Chan(name string, capacity int) *Chan {
	if capacity < 1 {
		panic(fmt.Sprintf("sched: Chan %q capacity %d; rendezvous channels are not modelled, capacity must be >= 1", name, capacity))
	}
	return &Chan{name: name, slots: make([]chanMsg, capacity)}
}

// Spawn registers a thread. Threads start when the body function
// returns; their ids are assigned in spawn order starting at 0.
func (w *World) Spawn(name string, fn func(*Context)) {
	w.threads = append(w.threads, &threadSpec{name: name, fn: fn})
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
