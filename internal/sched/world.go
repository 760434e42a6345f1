package sched

import "fmt"

// Var is a shared integer variable under scheduler control. Its reads
// and writes are operations (Read, Write): scheduling points as well
// as inputs to the happens-before race detector.
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

// Len returns the current number of buffered messages. A thread must
// not depend on it: a thread learns the World's state only from the
// responses to its operations.
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
	name   string
	thread Thread
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
func (w *World) Spawn(name string, t Thread) {
	w.threads = append(w.threads, threadSpec{name: name, thread: t})
}

// Check registers the final-state oracle, evaluated after all threads
// finished. Returning a non-nil error records a Failure together with
// the schedule that produced it. This is how generated parallel unit
// tests compare the parallel outcome against the sequential result.
func (w *World) Check(fn func(get func(*Var) int) error) { w.check = fn }

// Thread is one thread of the program under test, as a step function.
// The explorer calls Step, always on the goroutine that called
// Explore, with the response to the thread's previous operation (the
// zero Response on the first call); Step returns the thread's next
// operation, or Exit once the thread has finished, and is called again
// only after that operation has executed. body declares its threads
// anew on every run, so a thread keeps its state in the value body
// spawns, and shares state with other threads only through the World.
// A Thread is an interface, not a func, so that a body can spawn
// pointers into one block of thread states instead of allocating a
// closure per thread per run.
type Thread interface {
	Step(prev Response) Op
}

// Op is one operation of a thread on the World, and a scheduling
// point: the explorer decides when, and whether, it executes.
type Op struct {
	kind opKind
	v    *Var
	m    *Mutex
	ch   *Chan
	val  int
}

// Response is what an executed operation returned to its thread: the
// value a Read or Recv got and, for a Recv, whether a message arrived
// (false once the channel is closed and drained).
type Response struct {
	Val int
	OK  bool
}

// Exit is the operation a thread returns once it has finished.
var Exit = Op{}

// Read reads v; the response carries its value.
func Read(v *Var) Op { return Op{kind: opRead, v: v} }

// Write stores x into v.
func Write(v *Var, x int) Op { return Op{kind: opWrite, v: v, val: x} }

// Lock acquires m, blocking while another thread holds it.
func Lock(m *Mutex) Op { return Op{kind: opLock, m: m} }

// Unlock releases m. Unlocking a mutex the thread does not hold
// records a Failure and aborts the interleaving.
func Unlock(m *Mutex) Op { return Op{kind: opUnlock, m: m} }

// Send enqueues x on ch, blocking while the buffer is full. Sending on
// a closed channel records a Failure and aborts the interleaving.
func Send(ch *Chan, x int) Op { return Op{kind: opSend, ch: ch, val: x} }

// Recv dequeues from ch, blocking while it is empty. Once ch is closed
// and drained, the response is (0, false).
func Recv(ch *Chan) Op { return Op{kind: opRecv, ch: ch} }

// Close closes ch. Later sends fail; receives drain the buffer and
// then answer ok=false.
func Close(ch *Chan) Op { return Op{kind: opClose, ch: ch} }

// Yield is a pure scheduling point with no shared-state effect.
func Yield() Op { return Op{kind: opYield} }
