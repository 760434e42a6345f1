//go:build linux

package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one op share Op; a root span has Parent 0.
// Name is the metric name without its unit suffix.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the trace began
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) float64 {
	return float64(tm.Sub(t.t0).Nanoseconds()) / 1e6
}

// add records an interval measured elsewhere and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// begin opens a span whose children are recorded before end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

// end closes span id and returns its duration in ms.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.at(time.Now())
	return s.ms()
}

// do runs f inside a span and returns its duration in ms.
func (t *tracer) do(name string, parent, op int, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, op, start, end)
	return ms(end.Sub(start))
}

// self is span id's duration minus the part of it its children cover
// (children may overlap one another, as concurrent shard dispatches do).
func (t *tracer) self(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	var kids [][2]float64
	for _, c := range t.spans[id:] { // children are recorded after their parent
		if c.Parent == id {
			kids = append(kids, [2]float64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	return s.ms() - unionLen(kids)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// list returns a copy of the recorded spans.
func (t *tracer) list() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
