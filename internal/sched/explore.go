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
	// by optimal partial-order reduction (wakeup trees and sleep
	// sets, por.go), which runs exactly one interleaving of every
	// Mazurkiewicz trace, so races, deadlocks and failures are those
	// of the full search. Sleep sets are unsound under preemption bounding, so a
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

// stepHint is the run length, in steps, the per-step buffers start
// with room for: about a corpus unit test's, so that a short
// exploration does not regrow them step by step.
const stepHint = 64

// Race is one detected data race, deduplicated by variable, kind and
// thread pair across interleavings.
type Race struct {
	Var      string
	Kind     string // "write-write", "read-write" or "write-read"
	Threads  [2]int // offending thread ids (prior access first)
	Schedule []int  // the threads run, in order, in the exhibiting interleaving
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

// logStep is one executed step of a run: the thread that ran, its
// request, the response it got, and the decision state after the
// step.
type logStep struct {
	tid                 int
	req                 Op
	resp                Response
	branch, preemptions int
}

// Stats counts the scheduling work of an exploration.
type Stats struct {
	// Decisions is the number of times a run asked the scheduler for
	// its next step, including the last time, which ends the run.
	Decisions int
}

// explorer is the state that outlives one interleaving: the DFS
// stack, the log of executed steps, the step buffers every run reuses,
// and the world and execution each run resets.
type explorer struct {
	opt   Options
	stack []decision
	// log holds the steps of the current run. A run repeats the steps
	// below replay from the previous one, keeping their entries, and
	// overwrites the rest.
	log    []logStep
	replay int
	// raceSeen deduplicates races across interleavings.
	raceSeen map[raceKey]bool
	// per-step scratch: the enabled set and the ordered candidates
	enabled, cands []int
	// por is the partial-order reduction state of an unbounded DFS,
	// nil for a bounded search.
	por *por

	world World
	ex    execution
	// scheduling work so far, as Stats counts it
	decisions int
}

// Explore systematically executes body under every schedule (subject
// to Options) and aggregates all bugs found. body must be
// deterministic apart from scheduling: it is re-invoked for every
// interleaving, with a World that hands back the previous run's
// objects, reset, while body declares the same ones. Explore starts no
// goroutine: body and every thread's steps run on the caller's, so a
// panic in either reaches the caller.
func Explore(opt Options, body func(*World)) Result {
	res, _ := ExploreStats(opt, body)
	return res
}

// ExploreStats is Explore that also counts the scheduling work.
func ExploreStats(opt Options, body func(*World)) (Result, Stats) {
	e := newExplorer(opt)
	res := e.run(body)
	return res, Stats{Decisions: e.decisions}
}

// newExplorer fills in opt's defaults and picks the search.
func newExplorer(opt Options) *explorer {
	if opt.MaxSchedules <= 0 {
		opt.MaxSchedules = DefaultMaxSchedules
	}
	e := &explorer{
		opt:      opt,
		raceSeen: make(map[raceKey]bool),
		log:      make([]logStep, 0, stepHint),
	}
	e.ex = execution{e: e}
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
		e.replay = e.por.replay
		return true
	}
	for len(e.stack) > 0 {
		d := &e.stack[len(e.stack)-1]
		d.chosen++
		if d.chosen < len(d.enabled) {
			e.replay = d.step
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

// runOnce executes body under one schedule: it replays the prefix the
// run repeats from the log, then schedules the new steps one at a time
// until the run ends.
func (e *explorer) runOnce(body func(*World)) *execution {
	w := &e.world
	w.reset()
	body(w)
	ex := &e.ex
	ex.reset(w)
	e.log = e.log[:e.replay]
	if e.por != nil && !e.por.begin(len(w.threads), w.objects) {
		ex.nondeterministic("nondeterministic replay: %d threads, expected %d", len(w.threads), e.por.threads)
		return ex
	}
	ex.start()
	if ex.replay() {
		for {
			next, resp := ex.schedule()
			if next < 0 {
				break
			}
			if ex.next(&ex.threads[next], resp) && e.por != nil {
				e.por.posted(ex, next)
			}
		}
	}

	// A deterministic program replays the entire decision prefix the
	// explorer is following; ending a run before the stack is consumed
	// means the program changed behaviour between runs.
	if !ex.nondet && ex.branch < len(e.stack) {
		ex.nondeterministic("nondeterministic replay: run ended after %d branch points, expected %d", ex.branch, len(e.stack))
	}
	if e.por != nil && !ex.nondet && ex.step <= e.por.replay {
		ex.nondeterministic("nondeterministic replay: run ended after %d steps, expected more than %d", ex.step, e.por.replay)
	}
	if ex.sleepBlocked {
		e.por.blocked++
	}
	if !ex.aborted && !ex.sleepBlocked && ex.failure == nil && w.check != nil {
		if err := w.check(func(v *Var) int { return v.value }); err != nil {
			ex.fail("oracle: %v", err)
		}
	}
	return ex
}

// replay brings the run to the end of the prefix it repeats from the
// log, in one pass in log order. Each logged step's thread must have
// the logged operation pending; the operation is applied to the shared
// state and the clocks, its response checked against the log, and the
// thread asked for its next operation. The race detector is not run:
// the run that first executed a step recorded its races. replay
// reports false when the run diverged from the log.
func (ex *execution) replay() bool {
	log := ex.e.log
	for k := range log {
		s := &log[k]
		ex.step = k // a divergence's schedule: the steps before k
		if s.tid >= len(ex.threads) {
			ex.nondeterministic("nondeterministic replay at step %d: no thread %d", k, s.tid)
			return false
		}
		t := &ex.threads[s.tid]
		if t.done {
			ex.nondeterministic("nondeterministic replay at step %d: thread %d finished, expected %s", k, t.id, s.req)
			return false
		}
		if t.req != s.req {
			ex.nondeterministic("nondeterministic replay at step %d: thread %d executed %s, expected %s", k, t.id, t.req, s.req)
			return false
		}
		ex.pending[t.id] = nil
		ex.step = k + 1
		if resp, ok := ex.apply(t, &t.req, false); !ok || resp != s.resp {
			ex.nondeterministic("nondeterministic replay at step %d: thread %d's %s answered %+v, expected %+v", k, t.id, s.req, resp, s.resp)
			return false
		}
		ex.next(t, s.resp)
	}
	if r := len(log); r > 0 {
		last := &log[r-1]
		ex.lastTid, ex.branch, ex.preemptions = last.tid, last.branch, last.preemptions
	}
	return true
}

// schedule makes one scheduling decision: it picks the next thread,
// executes that thread's pending operation and returns the thread's id
// with its response. It returns -1 when the run is over: every thread
// finished, or the run was abandoned on a deadlock, a nondeterministic
// replay or an illegal operation.
func (ex *execution) schedule() (int, Response) {
	e := ex.e
	e.decisions++
	if ex.live == 0 {
		return -1, Response{}
	}
	enabled := ex.enabledSet()
	if len(enabled) == 0 {
		ex.deadlock = true
		ex.fail("deadlock: %s", ex.blockedSummary())
		ex.aborted = true
		return -1, Response{}
	}
	var chosen int
	if e.por != nil {
		if chosen = e.por.choose(ex, ex.step, enabled); chosen < 0 {
			ex.sleepBlocked = !ex.nondet
			return -1, Response{}
		}
	} else if chosen = ex.choose(enabled); chosen < 0 {
		return -1, Response{}
	}
	if ex.lastTid != -1 && chosen != ex.lastTid && containsInt(enabled, ex.lastTid) {
		ex.preemptions++
	}

	req := ex.pending[chosen]
	ex.pending[chosen] = nil
	k := ex.step
	ex.step++
	e.log = append(e.log, logStep{tid: chosen, req: *req, branch: ex.branch, preemptions: ex.preemptions})
	idx := -1
	if e.por != nil {
		idx = e.por.record(chosen, req)
	}
	resp, ok := ex.apply(&ex.threads[chosen], req, true)
	if !ok {
		ex.aborted = true
		if e.por != nil {
			e.por.aborted(ex, idx)
		}
		return -1, Response{}
	}
	e.log[k].resp = resp
	if e.por != nil {
		e.por.executed(ex, idx, req)
	}
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
		// the branch point the run replays to take its next choice
		d := &e.stack[ex.branch]
		if !equalInts(d.enabled, cands) {
			ex.nondeterministic("nondeterministic replay: enabled set %v, expected %v", cands, d.enabled)
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
		switch req.kind {
		case opLock:
			s += fmt.Sprintf("thread %d waits for mutex %q (held by %d)", tid, req.m.name, req.m.holder)
		case opSend:
			s += fmt.Sprintf("thread %d waits to send on full channel %q", tid, req.ch.name)
		case opRecv:
			s += fmt.Sprintf("thread %d waits to receive on empty channel %q", tid, req.ch.name)
		default:
			s += fmt.Sprintf("thread %d blocked at %s", tid, req.kind)
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
