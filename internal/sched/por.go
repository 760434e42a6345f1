package sched

// Partial-order reduction for the unbounded depth-first search:
// source sets with sleep sets (Abdulla, Aronis, Jonsson & Sagonas,
// POPL'14) over races found with vector clocks, as in dynamic
// partial-order reduction (Flanagan & Godefroid, POPL'05).
//
// Two operations of different threads are dependent when they touch
// the same Var and at least one writes, or the same Mutex, or the same
// Chan; Yield is independent of everything. Runs that differ only in
// the order of adjacent independent operations belong to one
// Mazurkiewicz trace and reach the same state, races and failures, so
// the search needs one run per trace. Every step of the current path
// is a node holding, per thread, whether its request was enabled,
// must be explored (backtrack), was explored (done) or would only
// repeat traces covered elsewhere (sleep). Each pending request's race
// partner gets, at its node, a thread whose exploration reverses the
// race. A run in which every enabled thread sleeps ends sleep-blocked:
// its trace is covered by another run.

// Per-thread flags of a node.
const (
	nodeEnabled   uint8 = 1 << iota // the thread's request could execute
	nodeBacktrack                   // the thread must be explored here
	nodeDone                        // the thread is or was explored here
	nodeSleep                       // exploring the thread here repeats covered traces
)

// event is one executed operation of the current run.
type event struct {
	tid, seq int32 // the thread and the event's 1-based rank in it
	prevObj  int32 // the previous event on the same object, or -1
	op       opKind
}

// por is the reduction state of an exploration. Every slice is reused
// from run to run, so a step allocates nothing once the buffers have
// grown to the program's size.
type por struct {
	threads int
	// flags holds one row of per-thread node flags per step of the
	// current path; choice is the thread chosen at each step.
	flags  []uint8
	choice []int32
	// replay is the step at which the current run takes a new branch;
	// steps before it repeat the previous run (-1 before the first).
	replay int

	// The current run: its events, each event's vector clock over the
	// full dependence relation (threads entries per event), each
	// thread's events in order, each object's last event, and per
	// object the join of all its events' clocks and of its writes'.
	events   []event
	clocks   []uint32
	byThread [][]int32
	objLast  []int32
	objClk   []uint32

	// scratch for race reversal
	first []int32
	jclk  []uint32

	// blocked counts the runs that ended sleep-blocked.
	blocked int
}

func newPOR() *por { return &por{replay: -1} }

// begin resets the per-run state for a world with n threads and m
// objects. A replaying run must have as many threads as the path it
// replays; begin reports false otherwise.
func (p *por) begin(n, m int) bool {
	if p.replay < 0 {
		p.threads = n
	} else if n != p.threads {
		return false
	}
	p.events = p.events[:0]
	p.clocks = p.clocks[:0]
	if cap(p.byThread) < n {
		p.byThread = append(p.byThread[:cap(p.byThread)], make([][]int32, n-cap(p.byThread))...)
	}
	p.byThread = p.byThread[:n]
	for i := range p.byThread {
		p.byThread[i] = p.byThread[i][:0]
	}
	p.objLast = resize(p.objLast, m)
	for i := range p.objLast {
		p.objLast[i] = -1
	}
	p.objClk = resize(p.objClk, 2*m*n)
	clear(p.objClk)
	p.first = resize(p.first, n)
	p.jclk = resize(p.jclk, n)
	p.setRows(p.replay + 1)
	return true
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setRows sets the number of node rows to m; added rows are zero.
func (p *por) setRows(m int) {
	size, old := m*p.threads, len(p.flags)
	if cap(p.flags) < size {
		grown := make([]uint8, size, 2*size)
		copy(grown, p.flags)
		p.flags = grown
		return
	}
	p.flags = p.flags[:size]
	if size > old {
		clear(p.flags[old:])
	}
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

// dependent reports whether two requests of different threads are
// dependent.
func dependent(a, b *request) bool {
	obj := objOf(a)
	if obj < 0 || obj != objOf(b) {
		return false
	}
	if a.op == opRead || a.op == opWrite {
		return a.op == opWrite || b.op == opWrite
	}
	return true
}

// coEnabled reports whether an earlier event of kind op and thread
// tid's pending request req on the same object may both be enabled in
// one state. A lock and a legal unlock of one mutex never are: the
// unlocking thread holds it. A send and a receive on one channel are
// only when the buffer can hold two messages, or once the channel is
// closed.
func coEnabled(op opKind, req *request, tid int) bool {
	switch {
	case op == opLock && req.op == opUnlock:
		return req.m.holder != tid
	case op == opUnlock && req.op == opLock:
		return false
	case op == opSend && req.op == opRecv, op == opRecv && req.op == opSend:
		return len(req.ch.slots) >= 2 || req.ch.closed
	}
	return true
}

// choose picks the thread to run at step k of the current run, which
// has the given enabled threads, and propagates the sleep set to the
// next step. Replayed steps repeat the previous run's choice; a new
// step prefers the running thread, then the lowest enabled thread
// that does not sleep. It returns -1 when every enabled thread sleeps.
func (p *por) choose(ex *execution, k int, enabled []int) int {
	var chosen int
	if k <= p.replay {
		if !sameEnabled(p.row(k), enabled) {
			ex.nondet = true
			ex.fail("nondeterministic replay: enabled set %v at step %d differs from the replayed run", enabled, k)
			return -1
		}
		chosen = int(p.choice[k])
		if k < p.replay {
			return chosen // the next step's sleep set is unchanged
		}
	} else {
		p.setRows(k + 1)
		row := p.row(k)
		for _, u := range enabled {
			row[u] |= nodeEnabled
		}
		chosen = -1
		if last := ex.lastTid; last >= 0 && row[last] == nodeEnabled {
			chosen = last
		} else {
			for _, u := range enabled {
				if row[u]&nodeSleep == 0 {
					chosen = u
					break
				}
			}
		}
		if chosen < 0 {
			return -1
		}
		row[chosen] |= nodeBacktrack | nodeDone
		p.choice = append(p.choice, int32(chosen))
	}
	// A thread asleep or already explored here stays asleep after
	// the chosen operation if it is independent of it.
	p.setRows(k + 2)
	row, next := p.row(k), p.row(k+1)
	clear(next)
	req := ex.pending[chosen]
	for u, f := range row {
		if u != chosen && f&(nodeSleep|nodeDone) != 0 && !dependent(ex.pending[u], req) {
			next[u] = nodeSleep
		}
	}
	return chosen
}

// sameEnabled reports whether row marks exactly the threads enabled.
func sameEnabled(row []uint8, enabled []int) bool {
	on := 0
	for _, f := range row {
		if f&nodeEnabled != 0 {
			on++
		}
	}
	for _, u := range enabled {
		if row[u]&nodeEnabled == 0 {
			return false
		}
	}
	return on == len(enabled)
}

// record appends tid's operation req to the run's events and computes
// its clock: the join of tid's previous event and every earlier event
// req depends on. It returns the event's index.
func (p *por) record(tid int, req *request) int {
	n := p.threads
	idx := len(p.events)
	ev := event{tid: int32(tid), seq: int32(len(p.byThread[tid]) + 1), prevObj: -1, op: req.op}
	if cap(p.clocks) < (idx+1)*n {
		grown := make([]uint32, idx*n, 2*(idx+1)*n)
		copy(grown, p.clocks)
		p.clocks = grown
	}
	p.clocks = p.clocks[:(idx+1)*n]
	clk := p.clock(idx)
	prev := p.lastClock(tid)
	obj := objOf(req)
	switch {
	case obj >= 0:
		copy(clk, p.pendingClock(req, obj, prev))
	case prev != nil:
		copy(clk, prev)
	default:
		clear(clk)
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
// races with the event that disabled it.

// posted checks the request tid has just posted against the events
// already executed on its object.
func (p *por) posted(ex *execution, tid int) {
	req := ex.pending[tid]
	obj := objOf(req)
	if obj < 0 || p.objLast[obj] < 0 {
		return
	}
	prev := p.lastClock(tid)
	if i := p.partner(tid, req, prev, int(p.objLast[obj])); i >= 0 {
		p.reverse(i, tid, p.pendingClock(req, obj, prev))
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
	ev := p.events[idx]
	for u, r := range ex.pending {
		if r == nil || objOf(r) != obj || (ev.op == opRead && r.op == opRead) {
			continue
		}
		prev := p.lastClock(u)
		if prev != nil && prev[ev.tid] >= uint32(ev.seq) {
			continue
		}
		if coEnabled(ev.op, r, u) {
			p.reverse(idx, u, p.pendingClock(r, obj, prev))
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

// aborted handles an illegal operation at step k, which ends the run
// and so disables every other thread: it is dependent on every other
// enabled request, and each of those threads must also be explored at
// step k unless it sleeps there.
func (p *por) aborted(k int) {
	row := p.row(k)
	for u, f := range row {
		if f&nodeEnabled != 0 && f&(nodeBacktrack|nodeSleep) == 0 {
			row[u] |= nodeBacktrack
		}
	}
}

// partner returns the race partner of tid's pending request req: the
// last event on req's object, walking back from start, that belongs
// to another thread, is dependent on req, may be co-enabled with it
// and does not happen before tid's last event (whose clock is prev,
// nil for none). It returns -1 when there is none.
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
		if coEnabled(ev.op, req, tid) {
			return e
		}
	}
	return -1
}

// reverse adds to node i (the step of event i) a thread that starts a
// run reversing the race between event i and thread q's pending
// request j, whose clock is jclk. The candidates are the initials of
// v = notdep(i)·q, the events after i that do not happen after it,
// followed by j: the threads whose first event in v has no
// predecessor in v. Nothing is added when an enabled
// initial is already in the node's backtrack or sleep set. Otherwise q
// is added if it is an initial, else the lowest enabled initial, else
// (no initial is enabled) every enabled thread.
func (p *por) reverse(i, q int, jclk []uint32) {
	row := p.row(i)
	pick := -1
	if i == len(p.events)-1 {
		// Nothing follows event i, so v is q alone.
		if row[q]&nodeEnabled != 0 {
			pick = q
		}
	} else {
		for u, evs := range p.byThread {
			lo, hi := 0, len(evs)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if int(evs[mid]) <= i {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			p.first[u] = -1
			if lo < len(evs) {
				p.first[u] = evs[lo]
			}
		}
		for u, f := range row {
			if f&nodeEnabled == 0 || !p.initial(u, q, i, jclk) {
				continue
			}
			if f&(nodeBacktrack|nodeSleep) != 0 {
				return
			}
			if pick < 0 || u == q {
				pick = u
			}
		}
	}
	switch {
	case pick < 0:
		for u, f := range row {
			if f&nodeEnabled != 0 {
				row[u] |= nodeBacktrack
			}
		}
	case row[pick]&nodeSleep == 0:
		row[pick] |= nodeBacktrack
	}
}

// initial reports whether thread u is an initial of notdep(i)·q, given
// each thread's first event after i in p.first.
func (p *por) initial(u, q, i int, jclk []uint32) bool {
	ti, si := int(p.events[i].tid), uint32(p.events[i].seq)
	f := int(p.first[u])
	if f < 0 {
		if u != q {
			return false
		}
		// j is q's first event in v: no event of notdep(i) may
		// happen before it.
		for w, fw := range p.first {
			if fw >= 0 && p.clock(int(fw))[ti] < si && jclk[w] >= uint32(p.events[fw].seq) {
				return false
			}
		}
		return true
	}
	clk := p.clock(f)
	if clk[ti] >= si {
		return false // u's events after i all happen after it
	}
	// An earlier event of notdep(i) before f would be some thread's
	// first event after i.
	for w, fw := range p.first {
		if w != u && fw >= 0 && int(fw) < f && clk[w] >= uint32(p.events[fw].seq) {
			return false
		}
	}
	return true
}

// advance moves to the deepest node with a thread to explore that is
// neither explored nor asleep there, and reports false when there is
// none. The next run replays the path up to that node.
func (p *por) advance() bool {
	for k := len(p.choice) - 1; k >= 0; k-- {
		row := p.row(k)
		for u, f := range row {
			if f&(nodeBacktrack|nodeDone|nodeSleep) == nodeBacktrack {
				row[u] |= nodeDone
				p.choice = p.choice[:k+1]
				p.choice[k] = int32(u)
				p.replay = k
				return true
			}
		}
	}
	return false
}
