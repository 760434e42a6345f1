package sched

import (
	"fmt"
	"strings"
)

// ExploreBlocked is Explore that also returns the number of runs that
// ended sleep-blocked. Result has no such field: adding one would
// change every recorded exploration.
func ExploreBlocked(opt Options, body func(*World)) (Result, int) {
	e := newExplorer(opt)
	res := e.run(body)
	if e.por == nil {
		return res, 0
	}
	return res, e.por.blocked
}

// ExploreTraces runs the reduced search on body to exhaustion and
// returns, for every run, its Mazurkiewicz trace in a canonical form:
// the run's operations (an illegal one, which ends the run, dependent
// on every other) in the order that always takes, among the operations
// whose dependent and same-thread predecessors have been taken, the
// one of the lowest thread. Two runs have the same canonical form
// exactly when they are equivalent.
func ExploreTraces(body func(*World)) []string {
	e := newExplorer(Options{PreemptionBound: -1})
	var traces []string
	for {
		ex := e.runOnce(body)
		evs := make([]step, len(e.por.events))
		for i, ev := range e.por.events {
			evs[i] = ev.step
		}
		if ex.aborted && !ex.deadlock && len(evs) > 0 {
			evs[len(evs)-1].abort = true
		}
		traces = append(traces, canonical(evs))
		if ex.nondet || !e.advance() {
			return traces
		}
	}
}

func canonical(evs []step) string {
	taken := make([]bool, len(evs))
	var b strings.Builder
	for range evs {
		next := -1
		for i, ev := range evs {
			if taken[i] || next >= 0 && ev.tid >= evs[next].tid {
				continue
			}
			ready := true
			for k := range i {
				if !taken[k] && (evs[k].tid == ev.tid || evs[k].dependsOn(ev)) {
					ready = false
					break
				}
			}
			if ready {
				next = i
			}
		}
		taken[next] = true
		fmt.Fprintf(&b, "%v ", evs[next])
	}
	return b.String()
}

// StepFunc is a Thread written as one function.
type StepFunc func(prev Response) Op

// Step calls f.
func (f StepFunc) Step(prev Response) Op { return f(prev) }

// Step is one step of a Seq thread: its operation, computed from the
// response to the step before.
type Step = func(prev Response) Op

// Seq returns a thread that takes steps in order and then exits; a
// step that returns Exit ends the thread early.
func Seq(steps ...Step) Thread {
	k := 0
	return StepFunc(func(prev Response) Op {
		if k == len(steps) {
			return Exit
		}
		k++
		return steps[k-1](prev)
	})
}

// Ops returns a thread that performs ops in order and then exits.
func Ops(ops ...Op) Thread {
	steps := make([]Step, len(ops))
	for i, op := range ops {
		steps[i] = Do(op)
	}
	return Seq(steps...)
}

// Do is the step that performs op whatever the response before.
func Do(op Op) Step { return func(Response) Op { return op } }

// WriteSum is the step that writes the value the step before read
// plus x into v: after Do(Read(v)), the second half of an
// unsynchronized v += x, two scheduling points as in real code.
func WriteSum(v *Var, x int) Step {
	return func(prev Response) Op { return Write(v, prev.Val+x) }
}

// Add returns a thread that performs v += x as an unsynchronized
// read-modify-write.
func Add(v *Var, x int) Thread { return Seq(Do(Read(v)), WriteSum(v, x)) }
