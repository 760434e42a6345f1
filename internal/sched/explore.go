package sched

import "fmt"

// Options configures an exploration.
type Options struct {
	// MaxSchedules bounds the number of interleavings executed.
	// 0 means the default of 20000.
	MaxSchedules int
	// PreemptionBound limits the number of preemptive context
	// switches per interleaving (CHESS's iterative context bounding).
	// Negative means unbounded: the depth-first search is then pruned
	// by partial-order reduction (source sets and sleep sets, por.go),
	// which runs at least one interleaving of every Mazurkiewicz
	// trace, so races, deadlocks and failures are those of the full
	// search. Sleep sets are unsound under preemption bounding, so a
	// bounded search is never reduced; a bound no run reaches gives
	// the full, unreduced search.
	PreemptionBound int
	// StopAtFirstBug ends the exploration as soon as any race,
	// deadlock or failure is recorded.
	StopAtFirstBug bool
	// Seed has no effect: every search is deterministic.
	Seed int64
}

// DefaultMaxSchedules is the schedule budget used when
// Options.MaxSchedules is zero.
const DefaultMaxSchedules = 20000

// Race is one detected data race, deduplicated by variable, kind and
// thread pair across interleavings.
type Race struct {
	Var      string
	Kind     string // "write-write", "read-write" or "write-read"
	Threads  [2]int // offending thread ids (prior access first)
	Schedule []int  // granted-thread trace of the exhibiting interleaving
}

// String formats the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("%s race on %q between threads %d and %d", r.Kind, r.Var, r.Threads[0], r.Threads[1])
}

// Failure is a non-race bug: a deadlock, an oracle violation, or an
// illegal operation (double close, unlock of unheld mutex, send on
// closed channel).
type Failure struct {
	Msg      string
	Schedule []int
}

// Result aggregates an exploration.
type Result struct {
	// Schedules is the number of interleavings executed.
	Schedules int
	// Exhausted reports that the entire (bounded) schedule space was
	// covered.
	Exhausted bool
	// Truncated reports that MaxSchedules stopped the search early.
	Truncated bool
	// Races are the distinct data races found.
	Races []Race
	// Deadlocks are the distinct deadlock states found.
	Deadlocks []Failure
	// Failures are oracle violations and illegal operations.
	Failures []Failure
	// Nondeterministic reports that replay diverged, i.e. the program
	// under test has nondeterminism outside scheduler control.
	Nondeterministic bool
}

// Buggy reports whether any race, deadlock or failure was found.
func (r *Result) Buggy() bool {
	return len(r.Races) > 0 || len(r.Deadlocks) > 0 || len(r.Failures) > 0
}

// decision is one branch point of the schedule tree.
type decision struct {
	enabled []int // candidate thread ids, in deterministic order
	chosen  int   // index into enabled currently being explored
	step    int   // global step index at which the decision occurred
}

// opSig fingerprints one executed operation for replay validation: a
// deterministic program must execute identical operations along a
// replayed decision prefix.
type opSig struct {
	tid    int
	op     opKind
	target string
	val    int
}

func sigOf(tid int, req *request) opSig {
	s := opSig{tid: tid, op: req.op, val: req.val}
	switch {
	case req.v != nil:
		s.target = req.v.name
	case req.m != nil:
		s.target = req.m.name
	case req.ch != nil:
		s.target = req.ch.name
	}
	return s
}

// explorer is the state that outlives one interleaving: the DFS
// stack, the previous run's operation log and the step buffers every
// run reuses.
type explorer struct {
	opt   Options
	stack []decision
	// prevOps is the operation log of the previous run; steps below
	// replayLimit are a replayed prefix and must match it exactly.
	// oplog is the current run's log; the two swap after each run.
	prevOps, oplog []opSig
	replayLimit    int
	// raceSeen deduplicates races across interleavings.
	raceSeen map[raceKey]bool
	// per-step scratch: the enabled set, the ordered candidates and
	// the trace buffer
	enabled, cands, trace []int
	// por is the partial-order reduction state of an unbounded DFS,
	// nil for a bounded search.
	por *por
}

// Explore systematically executes body under every schedule (subject
// to Options) and aggregates all bugs found. body must be
// deterministic apart from scheduling: it is re-invoked with a fresh
// World for every interleaving.
func Explore(opt Options, body func(*World)) Result {
	return newExplorer(opt).run(body)
}

// newExplorer fills in opt's defaults and picks the search.
func newExplorer(opt Options) *explorer {
	if opt.MaxSchedules <= 0 {
		opt.MaxSchedules = DefaultMaxSchedules
	}
	e := &explorer{opt: opt, raceSeen: make(map[raceKey]bool)}
	if opt.PreemptionBound < 0 {
		e.por = newPOR()
	}
	return e
}

// run explores body and aggregates the runs' results.
func (e *explorer) run(body func(*World)) Result {
	opt := e.opt
	var res Result
	failSeen := make(map[string]bool)
	deadSeen := make(map[string]bool)
	for {
		ex := e.runOnce(body)
		res.Schedules++
		res.Races = append(res.Races, ex.races...)
		if ex.failure != nil {
			if ex.deadlock {
				if !deadSeen[ex.failure.Msg] {
					deadSeen[ex.failure.Msg] = true
					res.Deadlocks = append(res.Deadlocks, *ex.failure)
				}
			} else if !failSeen[ex.failure.Msg] {
				failSeen[ex.failure.Msg] = true
				res.Failures = append(res.Failures, *ex.failure)
			}
		}
		if ex.nondet {
			res.Nondeterministic = true
			return res
		}
		if opt.StopAtFirstBug && res.Buggy() {
			return res
		}
		if res.Schedules >= opt.MaxSchedules {
			res.Truncated = true
			return res
		}
		if !e.advance() {
			res.Exhausted = true
			return res
		}
	}
}

// advance moves the decision stack to the next unexplored schedule,
// reporting false when the space is exhausted.
func (e *explorer) advance() bool {
	if e.por != nil {
		if !e.por.advance() {
			return false
		}
		e.replayLimit = e.por.replay
		return true
	}
	for len(e.stack) > 0 {
		d := &e.stack[len(e.stack)-1]
		d.chosen++
		if d.chosen < len(d.enabled) {
			e.replayLimit = d.step
			return true
		}
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}

// push records a new branch point, reusing the storage of a decision
// popped earlier.
func (e *explorer) push(cands []int, step int) {
	n := len(e.stack)
	if n < cap(e.stack) {
		e.stack = e.stack[:n+1]
	} else {
		e.stack = append(e.stack, decision{})
	}
	d := &e.stack[n]
	d.enabled = append(d.enabled[:0], cands...)
	d.chosen = 0
	d.step = step
}

// runOnce executes body under one schedule. The explorer holds the
// baton until it makes the first decision; after that the threads
// schedule each other, and the explorer waits for the end of the run,
// unwinds the threads still waiting and joins them all.
func (e *explorer) runOnce(body func(*World)) *execution {
	w := &World{}
	body(w)
	ex := &execution{
		e:       e,
		world:   w,
		first:   make(chan message),
		end:     make(chan struct{}),
		lastTid: -1,
		trace:   e.trace[:0],
	}
	e.oplog = e.oplog[:0]
	if e.por != nil && !e.por.begin(len(w.threads), w.objects) {
		ex.nondet = true
		ex.fail("nondeterministic replay: %d threads, expected %d", len(w.threads), e.por.threads)
		return ex
	}
	ex.start()
	for range ex.threads {
		msg := <-ex.first
		if msg.done {
			ex.threads[msg.tid].done = true
			ex.live--
		} else {
			ex.pending[msg.tid] = &ex.threads[msg.tid].req
		}
	}
	if next, resp := ex.schedule(); next >= 0 {
		ex.threads[next].grant <- resp
		<-ex.end
	}
	for _, t := range ex.threads {
		if !t.done {
			t.grant <- response{abort: true}
		}
	}
	ex.wg.Wait()

	// A deterministic program replays the entire decision prefix the
	// explorer is following; ending a run before the stack is consumed
	// means the program changed behaviour between runs.
	if !ex.nondet && ex.branch < len(e.stack) {
		ex.nondet = true
		ex.fail("nondeterministic replay: run ended after %d branch points, expected %d", ex.branch, len(e.stack))
	}
	if e.por != nil && !ex.nondet && ex.step <= e.por.replay {
		ex.nondet = true
		ex.fail("nondeterministic replay: run ended after %d steps, expected more than %d", ex.step, e.por.replay)
	}
	if ex.sleepBlocked {
		e.por.blocked++
	}
	if !ex.aborted && !ex.sleepBlocked && ex.failure == nil && w.check != nil {
		if err := w.check(func(v *Var) int { return v.value }); err != nil {
			ex.fail("oracle: %v", err)
		}
	}
	e.prevOps, e.oplog = e.oplog, e.prevOps
	e.trace = ex.trace
	return ex
}

// schedule makes one scheduling decision for the baton holder: it
// picks the next thread, executes that thread's pending operation and
// returns the thread's id with its response. It returns -1 when the
// run is over: every thread finished, or the run was abandoned on a
// deadlock, a nondeterministic replay or an illegal operation.
func (ex *execution) schedule() (int, response) {
	if ex.live == 0 {
		return -1, response{}
	}
	e := ex.e
	enabled := ex.enabledSet()
	if len(enabled) == 0 {
		ex.deadlock = true
		ex.fail("deadlock: %s", ex.blockedSummary())
		ex.aborted = true
		return -1, response{}
	}
	var chosen int
	if e.por != nil {
		if chosen = e.por.choose(ex, ex.step, enabled); chosen < 0 {
			if ex.nondet {
				ex.aborted = true
			} else {
				ex.sleepBlocked = true
			}
			return -1, response{}
		}
	} else if chosen = ex.choose(enabled); chosen < 0 {
		return -1, response{}
	}
	if ex.lastTid != -1 && chosen != ex.lastTid && containsInt(enabled, ex.lastTid) {
		ex.preemptions++
	}

	req := ex.pending[chosen]
	ex.pending[chosen] = nil
	ex.trace = append(ex.trace, chosen)
	sig := sigOf(chosen, req)
	if ex.step < e.replayLimit && (ex.step >= len(e.prevOps) || e.prevOps[ex.step] != sig) {
		ex.nondet = true
		ex.fail("nondeterministic replay at step %d: executed %+v", ex.step, sig)
		ex.aborted = true
		return -1, response{}
	}
	e.oplog = append(e.oplog, sig)
	ex.step++
	if e.por == nil {
		resp := ex.apply(ex.threads[chosen], req)
		if resp.abort {
			ex.aborted = true
			return -1, response{}
		}
		ex.lastTid = chosen
		return chosen, resp
	}
	idx := e.por.record(chosen, req)
	resp := ex.apply(ex.threads[chosen], req)
	if resp.abort {
		ex.aborted = true
		e.por.aborted(idx)
		return -1, response{}
	}
	e.por.executed(ex, idx, req)
	ex.lastTid = chosen
	return chosen, resp
}

// choose picks the next thread of the unreduced search among the
// enabled ones, or returns -1 after a nondeterministic replay.
func (ex *execution) choose(enabled []int) int {
	e := ex.e
	cands := e.cands[:0]
	if e.opt.PreemptionBound >= 0 && ex.preemptions >= e.opt.PreemptionBound && containsInt(enabled, ex.lastTid) {
		cands = append(cands, ex.lastTid)
	} else {
		cands = append(cands, enabled...)
	}
	e.cands = orderCands(cands, ex.lastTid)
	cands = e.cands

	if len(cands) == 1 {
		return cands[0]
	}
	if ex.branch < len(e.stack) {
		d := &e.stack[ex.branch]
		if !equalInts(d.enabled, cands) {
			ex.nondet = true
			ex.fail("nondeterministic replay: enabled set %v, expected %v", cands, d.enabled)
			ex.aborted = true
			return -1
		}
		ex.branch++
		return cands[d.chosen]
	}
	e.push(cands, ex.step)
	ex.branch++
	return cands[0]
}

// enabledSet returns the ids of pending threads whose operation can
// execute, in ascending order, in a buffer reused by the next step.
func (ex *execution) enabledSet() []int {
	out := ex.e.enabled[:0]
	for tid, req := range ex.pending {
		if req != nil && enabled(req) {
			out = append(out, tid)
		}
	}
	ex.e.enabled = out
	return out
}

// blockedSummary describes what every blocked thread is waiting for.
func (ex *execution) blockedSummary() string {
	var s string
	for tid, req := range ex.pending {
		if req == nil {
			continue
		}
		if s != "" {
			s += "; "
		}
		switch req.op {
		case opLock:
			s += fmt.Sprintf("thread %d waits for mutex %q (held by %d)", tid, req.m.name, req.m.holder)
		case opSend:
			s += fmt.Sprintf("thread %d waits to send on full channel %q", tid, req.ch.name)
		case opRecv:
			s += fmt.Sprintf("thread %d waits to receive on empty channel %q", tid, req.ch.name)
		default:
			s += fmt.Sprintf("thread %d blocked at %s", tid, req.op)
		}
	}
	return s
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// orderCands orders ascending candidates in place with last (the
// currently running thread) first, so the first-explored path of every
// branch is the preemption-free one.
func orderCands(cands []int, last int) []int {
	if last < 0 {
		return cands
	}
	for i, v := range cands {
		if v == last {
			copy(cands[1:i+1], cands[:i])
			cands[0] = v
			break
		}
	}
	return cands
}
