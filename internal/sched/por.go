package sched

// Optimal partial-order reduction for the unbounded depth-first
// search: wakeup trees with sleep sets (Abdulla, Aronis, Jonsson &
// Sagonas, "Optimal dynamic partial order reduction", POPL'14) over
// races found with vector clocks, as in dynamic partial-order
// reduction (Flanagan & Godefroid, POPL'05).
//
// Two operations of different threads are dependent when they touch
// the same Var and at least one writes, or the same Mutex, or the same
// Chan; Yield is independent of everything. Runs that differ only in
// the order of adjacent independent operations belong to one
// Mazurkiewicz trace and reach the same state, races and failures, so
// the search needs one run per trace. Every step of the current path
// is a node holding, per thread, whether its request was enabled, was
// explored there (done) or would only repeat traces covered elsewhere
// (sleep), and a wakeup tree: the thread sequences still to be run
// from the node. Reversing a race between event i and a pending
// request j inserts notdep(i)·j, the events after i that do not happen
// after it followed by j, into node i's tree, unless a sleeping thread
// or an existing branch already covers it. Runs follow the tree's
// sequences, so no run ends with every enabled thread asleep, and
// every run is a new trace.

// Per-thread flags of a node.
const (
	nodeEnabled uint8 = 1 << iota // the thread's request could execute
	nodeDone                      // the thread is or was explored here
	nodeSleep                     // exploring the thread here repeats covered traces
	nodeAbort                     // the thread's request here ends the run
)

// Channel state before a channel event, for deciding whether a
// request on the same channel could run in its place.
const (
	preEmpty uint8 = 1 << iota
	preFull
	preClosed
)

// step is one operation of a thread sequence: the thread, the object
// and kind of its operation (obj -1 for Yield), and whether it is an
// illegal operation, which ends the run.
type step struct {
	tid, obj int32
	op       opKind
	abort    bool
}

// dependsOn reports whether operations a and b of different threads
// are dependent. An illegal operation disables every other thread, so
// it is dependent on every operation.
func (a step) dependsOn(b step) bool {
	return a.abort || b.abort || a.obj >= 0 && a.obj == b.obj && (a.op != opRead || b.op != opRead)
}

// event is one executed operation of the current run.
type event struct {
	step
	seq     int32 // the event's 1-based rank in its thread
	prevObj int32 // the previous event on the same object, or -1
	pre     uint8 // channel state before the event
}

// wnode is a wakeup-tree node: a thread's operation, its first child
// and its next sibling (-1 for none). Siblings run in list order.
type wnode struct {
	step
	child, next int32
}

// por is the reduction state of an exploration. Every slice is reused
// from run to run, so a step allocates nothing once the buffers have
// grown to the program's size.
type por struct {
	threads int
	// flags holds one row of per-thread node flags per step of the
	// current path; choice is the thread chosen at each step; wut[k]
	// is the first pending branch of node k's wakeup tree (-1 for
	// none), with one more entry than choice.
	flags  []uint8
	choice []int32
	wut    []int32
	// nodes holds every wakeup tree's nodes; free lists reusable ones.
	nodes []wnode
	free  int32
	// replay is the step at which the current run takes a new branch;
	// steps before it repeat the previous run (-1 before the first).
	replay int

	// The current run: its events, each event's vector clock over the
	// full dependence relation (threads entries per event), each
	// thread's events in order, each object's last event, and per
	// object the join of all its events' clocks and of its writes'.
	// A run keeps the previous run's entries for its replayed steps.
	events   []event
	clocks   []uint32
	byThread [][]int32
	objLast  []int32
	objClk   []uint32

	// scratch: a pending request's clock, the sequence being
	// inserted and the objects whose joins need rebuilding
	jclk  []uint32
	seq   []step
	dirty []int32

	// blocked counts the runs that ended with every enabled thread
	// asleep; wakeup trees keep it zero.
	blocked int
}

func newPOR() *por {
	return &por{
		replay: -1,
		free:   -1,
		choice: make([]int32, 0, stepHint),
		wut:    append(make([]int32, 0, stepHint+1), -1),
		events: make([]event, 0, stepHint),
	}
}

// begin prepares the per-run state for a world with n threads and m
// objects, keeping what the replayed steps repeat. A replaying run
// must have as many threads as the path it replays; begin reports
// false otherwise.
func (p *por) begin(n, m int) bool {
	if p.replay < 0 {
		p.threads = n
		p.clocks = make([]uint32, 0, stepHint*n)
		p.flags = make([]uint8, 0, stepHint*n)
	} else if n != p.threads {
		return false
	}
	if cap(p.byThread) < n {
		p.byThread = append(p.byThread[:cap(p.byThread)], make([][]int32, n-cap(p.byThread))...)
	}
	p.byThread = p.byThread[:n]
	if m < len(p.objLast) {
		m = len(p.objLast) // a nondeterministic body declared fewer objects
	}
	if m > len(p.objLast) {
		old := len(p.objLast)
		p.objLast = grow(p.objLast, m)
		for i := old; i < m; i++ {
			p.objLast[i] = -1
		}
		p.objClk = grow(p.objClk, 2*m*n)
	}
	p.jclk = grow(p.jclk, n)
	p.rewind(max(p.replay, 0))
	p.setRows(p.replay + 1)
	return true
}

// rewind drops the events from step k on: it restores each object's
// last event from the dropped events' links and rebuilds the joins of
// the objects they touched.
func (p *por) rewind(k int) {
	dirty := p.dirty[:0]
	for e := len(p.events) - 1; e >= k; e-- {
		ev := &p.events[e]
		if ev.obj >= 0 {
			if ev.prevObj < int32(k) {
				dirty = append(dirty, ev.obj) // the object's first dropped event
			}
			p.objLast[ev.obj] = ev.prevObj
		}
		evs := p.byThread[ev.tid]
		p.byThread[ev.tid] = evs[:len(evs)-1]
	}
	p.events = p.events[:k]
	p.clocks = p.clocks[:k*p.threads]
	for _, obj := range dirty {
		all, writes := p.objClocks(int(obj))
		clear(all)
		clear(writes)
		// Any event but a read follows every earlier event on its
		// object, so the walk stops at the last one.
		for e := p.objLast[obj]; e >= 0; e = p.events[e].prevObj {
			clk := p.clock(int(e))
			join(all, clk)
			if op := p.events[e].op; op != opRead {
				if op == opWrite {
					copy(writes, clk)
				}
				break
			}
		}
	}
	p.dirty = dirty
}

// grow returns s with length n, keeping its first entries; the added
// entries are zero.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n, 2*n)
		copy(grown, s)
		return grown
	}
	old := len(s)
	s = s[:n]
	if n > old {
		clear(s[old:])
	}
	return s
}

// setRows sets the number of node rows to m; added rows are zero.
func (p *por) setRows(m int) {
	p.flags = grow(p.flags, m*p.threads)
}

func (p *por) row(k int) []uint8 { return p.flags[k*p.threads : (k+1)*p.threads] }

func (p *por) clock(e int) []uint32 {
	n := p.threads
	return p.clocks[e*n : (e+1)*n]
}

// lastClock returns the clock of tid's last event, nil before its first.
func (p *por) lastClock(tid int) []uint32 {
	evs := p.byThread[tid]
	if len(evs) == 0 {
		return nil
	}
	return p.clock(int(evs[len(evs)-1]))
}

// objClocks returns the join of all of obj's events' clocks and the
// join of its writes' clocks.
func (p *por) objClocks(obj int) (all, writes []uint32) {
	n := p.threads
	base := 2 * obj * n
	return p.objClk[base : base+n], p.objClk[base+n : base+2*n]
}

// objOf returns the dense id of the object req touches, -1 for Yield.
func objOf(req *request) int {
	switch {
	case req.v != nil:
		return req.v.id
	case req.m != nil:
		return req.m.id
	case req.ch != nil:
		return req.ch.id
	}
	return -1
}

func stepOf(tid int, req *request) step {
	return step{tid: int32(tid), obj: int32(objOf(req)), op: req.op}
}

// dependent reports whether two requests of different threads are
// dependent.
func dependent(a, b *request) bool {
	return stepOf(0, a).dependsOn(stepOf(0, b))
}

// reversible reports whether thread tid's pending request req could
// run in place of the earlier event ev on the same object: in the
// state before ev, which is the state the reversal runs req in. A lock
// and a legal unlock of one mutex never can: the unlocking thread
// holds it. A receive needs a message or a closed channel, a send
// buffer space or a closed channel.
func reversible(ev *event, req *request, tid int) bool {
	switch {
	case ev.op == opLock && req.op == opUnlock:
		return req.m.holder != tid
	case ev.op == opUnlock && req.op == opLock:
		return false
	case req.op == opRecv:
		return ev.pre&(preEmpty|preClosed) != preEmpty
	case req.op == opSend:
		return ev.pre&(preFull|preClosed) != preFull
	}
	return true
}

// aborts reports whether thread tid's request req is an illegal
// operation in the current state.
func aborts(req *request, tid int) bool {
	switch req.op {
	case opUnlock:
		return req.m.holder != tid
	case opSend, opClose:
		return req.ch.closed
	}
	return false
}

// abortsBefore reports whether a request req is an illegal operation
// in the state before the earlier event ev of another thread on its
// object. Before that thread's lock or unlock of a mutex, req's thread
// does not hold it.
func abortsBefore(ev *event, req *request) bool {
	switch req.op {
	case opUnlock:
		return true
	case opSend, opClose:
		return ev.pre&preClosed != 0
	}
	return false
}

// choose picks the thread to run at step k of the current run, which
// has the given enabled threads, and propagates the sleep set to the
// next step. The run's first step, k = replay, takes the branch
// advance set; a new step takes the first branch of its wakeup tree,
// else prefers the running thread, then the lowest enabled thread that
// does not sleep. It returns -1 when every enabled thread sleeps.
func (p *por) choose(ex *execution, k int, enabled []int) int {
	var chosen int
	if k == p.replay {
		if !sameEnabled(p.row(k), enabled) {
			ex.nondeterministic("nondeterministic replay: enabled set %v at step %d differs from the replayed run", enabled, k)
			return -1
		}
		chosen = int(p.choice[k])
	} else {
		p.setRows(k + 1)
		row := p.row(k)
		for _, u := range enabled {
			row[u] |= nodeEnabled
		}
		child := int32(-1)
		if c := p.wut[k]; c >= 0 {
			nd := p.nodes[c]
			chosen = int(nd.tid)
			if row[chosen]&nodeEnabled == 0 {
				ex.nondeterministic("nondeterministic replay: thread %d is not enabled at step %d, as the reversed race requires", chosen, k)
				return -1
			}
			p.wut[k], child = nd.next, nd.child
			p.release(c)
		} else if last := ex.lastTid; last >= 0 && row[last] == nodeEnabled {
			chosen = last
		} else {
			chosen = -1
			for _, u := range enabled {
				if row[u]&nodeSleep == 0 {
					chosen = u
					break
				}
			}
			if chosen < 0 {
				return -1
			}
		}
		row[chosen] |= nodeDone
		p.choice = append(p.choice, int32(chosen))
		p.wut = append(p.wut[:k+1], child)
	}
	// A thread asleep or already explored here stays asleep after
	// the chosen operation if it is independent of it, and its
	// request is legal.
	p.setRows(k + 2)
	row, next := p.row(k), p.row(k+1)
	clear(next)
	req := ex.pending[chosen]
	for u, f := range row {
		if u != chosen && f&(nodeSleep|nodeDone) != 0 && f&nodeAbort == 0 && !dependent(ex.pending[u], req) {
			next[u] = nodeSleep
		}
	}
	return chosen
}

// sameEnabled reports whether row marks exactly the threads enabled,
// which are in ascending order.
func sameEnabled(row []uint8, enabled []int) bool {
	j := 0
	for u, f := range row {
		on := j < len(enabled) && enabled[j] == u
		if on {
			j++
		}
		if on != (f&nodeEnabled != 0) {
			return false
		}
	}
	return j == len(enabled)
}

// record appends tid's operation req to the run's events and computes
// its clock: the join of tid's previous event and every earlier event
// req depends on. It returns the event's index.
func (p *por) record(tid int, req *request) int {
	n := p.threads
	idx := len(p.events)
	ev := event{step: stepOf(tid, req), seq: int32(len(p.byThread[tid]) + 1), prevObj: -1}
	if ch := req.ch; ch != nil {
		if ch.n == 0 {
			ev.pre |= preEmpty
		}
		if ch.n == len(ch.slots) {
			ev.pre |= preFull
		}
		if ch.closed {
			ev.pre |= preClosed
		}
	}
	p.clocks = grow(p.clocks, (idx+1)*n)
	clk := p.clock(idx)
	prev := p.lastClock(tid)
	obj := int(ev.obj)
	switch {
	case obj >= 0:
		copy(clk, p.pendingClock(req, obj, prev))
	case prev != nil:
		copy(clk, prev)
	}
	clk[tid] = uint32(ev.seq)
	if obj >= 0 {
		// A read joins the object's clock; any other event already
		// follows every earlier event on the object.
		all, writes := p.objClocks(obj)
		if req.op == opRead {
			join(all, clk)
		} else {
			copy(all, clk)
		}
		if req.op == opWrite {
			copy(writes, clk)
		}
		ev.prevObj = p.objLast[obj]
		p.objLast[obj] = int32(idx)
	}
	p.events = append(p.events, ev)
	p.byThread[tid] = append(p.byThread[tid], int32(idx))
	return idx
}

func join(dst, src []uint32) {
	for i, x := range src {
		if x > dst[i] {
			dst[i] = x
		}
	}
}

// Races are checked the way Flanagan and Godefroid check them: in
// every state, for every thread's pending request, against its last
// race partner. A pending request only changes when its thread posts
// a new one, and its partner only when an event on its object
// executes, so posted and executed together cover every state. A
// request that is disabled until after a later event on its object
// (a receive that another receive beat to the only message) still
// races with the event that disabled it. A replayed step posts and
// executes what the run it repeats did, so its races are already in
// the wakeup trees.

// posted checks the request tid has just posted against the events
// already executed on its object.
func (p *por) posted(ex *execution, tid int) {
	req := ex.pending[tid]
	obj := objOf(req)
	if obj < 0 || p.objLast[obj] < 0 {
		return
	}
	if i := p.partner(tid, req, p.lastClock(tid), int(p.objLast[obj])); i >= 0 {
		p.reverse(ex, i, tid, req, abortsBefore(&p.events[i], req))
	}
}

// executed checks event idx, which executed req, against the requests
// other threads have pending on the same object: it is their latest
// possible partner.
func (p *por) executed(ex *execution, idx int, req *request) {
	obj := objOf(req)
	if obj < 0 {
		return
	}
	ev := &p.events[idx]
	for u, r := range ex.pending {
		if r == nil || objOf(r) != obj || (ev.op == opRead && r.op == opRead) {
			continue
		}
		prev := p.lastClock(u)
		if prev != nil && prev[ev.tid] >= uint32(ev.seq) {
			continue
		}
		if reversible(ev, r, u) {
			p.reverse(ex, idx, u, r, abortsBefore(ev, r))
		}
	}
}

// pendingClock returns, in a scratch buffer, the clock a pending
// request req on obj would have: its thread's last clock prev joined
// with the events on obj it depends on.
func (p *por) pendingClock(req *request, obj int, prev []uint32) []uint32 {
	if prev != nil {
		copy(p.jclk, prev)
	} else {
		clear(p.jclk)
	}
	all, writes := p.objClocks(obj)
	if req.op == opRead {
		join(p.jclk, writes)
	} else {
		join(p.jclk, all)
	}
	return p.jclk
}

// aborted handles an illegal operation, event i, which ends the run
// and so disables every other thread: it is dependent on every other
// enabled request, and each of those threads must also be explored at
// step i.
func (p *por) aborted(ex *execution, i int) {
	chosen := int(p.choice[i])
	row := p.row(i)
	row[chosen] |= nodeAbort
	for u, f := range row {
		if f&nodeEnabled != 0 && u != chosen {
			p.reverse(ex, i, u, ex.pending[u], aborts(ex.pending[u], u))
		}
	}
}

// partner returns the race partner of tid's pending request req: the
// last event on req's object, walking back from start, that belongs
// to another thread, is dependent on req, could run with req in its
// place and does not happen before tid's last event (whose clock is
// prev, nil for none). It returns -1 when there is none.
func (p *por) partner(tid int, req *request, prev []uint32, start int) int {
	for e := start; e >= 0; e = int(p.events[e].prevObj) {
		ev := &p.events[e]
		// Any event but a read depends on every earlier event on its
		// object, so once it is ordered before req, all earlier ones
		// are too.
		ordered := ev.op != opRead
		if int(ev.tid) == tid || (prev != nil && prev[ev.tid] >= uint32(ev.seq)) {
			if ordered {
				return -1
			}
			continue
		}
		if ev.op == opRead && req.op == opRead {
			continue
		}
		if reversible(ev, req, tid) {
			return e
		}
	}
	return -1
}

// reverse reverses the race between event i and thread q's pending
// request req, which is illegal in that order if abort is set: it
// inserts v = notdep(i)·q, the events after i that do not happen after
// it followed by req, into node i's wakeup tree. Nothing is inserted
// when a thread asleep or already explored at node i is a weak initial
// of v: the traces that start with v are then covered by that thread's
// exploration.
func (p *por) reverse(ex *execution, i, q int, req *request, abort bool) {
	ti, si := int(p.events[i].tid), uint32(p.events[i].seq)
	v := p.seq[:0]
	for e := i + 1; e < len(p.events); e++ {
		if p.clock(e)[ti] < si {
			v = append(v, p.events[e].step)
		}
	}
	j := stepOf(q, req)
	j.abort = abort
	v = append(v, j)
	p.seq = v
	chosen := int(p.choice[i])
	for r, f := range p.row(i) {
		if r == chosen || f&(nodeSleep|nodeDone) == 0 {
			continue
		}
		s := p.nextStep(ex, r, i)
		s.abort = f&nodeAbort != 0
		if weakInitial(s, v) >= -1 {
			return
		}
	}
	p.insert(i, v)
}

// nextStep returns thread r's operation at node i: its first event
// after event i, or its pending request when it has none.
func (p *por) nextStep(ex *execution, r, i int) step {
	evs := p.byThread[r]
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(evs[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(evs) {
		return p.events[evs[lo]].step
	}
	return stepOf(r, ex.pending[r])
}

// weakInitial reports whether operation s's thread is a weak initial
// of sequence v: it returns the index of the thread's first operation
// in v when nothing before it in v depends on s, -1 when the thread is
// not in v and s is independent of all of v, and -2 when s is not a
// weak initial.
func weakInitial(s step, v []step) int {
	for k, x := range v {
		if x.tid == s.tid {
			return k
		}
		if s.dependsOn(x) {
			return -2
		}
	}
	return -1
}

// insert adds sequence v to node k's wakeup tree: it follows the first
// branch whose thread is a weak initial of what is left of v, taking
// that thread's operation out of v, and stops when it reaches a leaf
// or uses up v (an existing branch covers v). Where no branch is a
// weak initial, the rest of v becomes the last branch.
func (p *por) insert(k int, v []step) {
	parent, head := int32(-1), p.wut[k]
	for {
		last := int32(-1)
		c := head
		for ; c >= 0; c = p.nodes[c].next {
			if at := weakInitial(p.nodes[c].step, v); at >= -1 {
				if at >= 0 {
					v = append(v[:at], v[at+1:]...)
				}
				break
			}
			last = c
		}
		if c < 0 {
			branch := p.branch(v)
			switch {
			case last >= 0:
				p.nodes[last].next = branch
			case parent >= 0:
				p.nodes[parent].child = branch
			default:
				p.wut[k] = branch
			}
			return
		}
		if p.nodes[c].child < 0 || len(v) == 0 {
			return
		}
		parent, head = c, p.nodes[c].child
	}
}

// branch builds a chain of wakeup-tree nodes for v and returns its
// first node.
func (p *por) branch(v []step) int32 {
	next := int32(-1)
	for k := len(v) - 1; k >= 0; k-- {
		c := p.free
		if c >= 0 {
			p.free = p.nodes[c].next
		} else {
			c = int32(len(p.nodes))
			p.nodes = append(p.nodes, wnode{})
		}
		p.nodes[c] = wnode{step: v[k], child: next, next: -1}
		next = c
	}
	return next
}

// release puts node c, whose branches live on elsewhere, on the free
// list.
func (p *por) release(c int32) {
	p.nodes[c].next = p.free
	p.free = c
}

// advance moves to the deepest node with a pending wakeup-tree branch
// and takes that branch's first thread, reporting false when there is
// none. The next run replays the path up to that node and then
// follows the branch.
func (p *por) advance() bool {
	for k := len(p.choice) - 1; k >= 0; k-- {
		c := p.wut[k]
		if c < 0 {
			continue
		}
		nd := p.nodes[c]
		p.wut[k] = nd.next
		p.release(c)
		p.choice = p.choice[:k+1]
		p.choice[k] = nd.tid
		p.row(k)[nd.tid] |= nodeDone
		p.wut = append(p.wut[:k+1], nd.child)
		p.replay = k
		return true
	}
	return false
}
