// Package obs is the runtime-observability layer of the parallel
// pattern runtime: lock-cheap counters, gauges and fixed-bucket
// latency histograms behind a Collector with a consistent-enough
// Snapshot API. It closes the feedback loop the paper's process model
// ends on — the auto-tuning cycle (Fig. 4c) consumes a black-box cost
// today; with per-stage service times, queue occupancy and worker
// imbalance it can explain *why* a configuration won and prune
// configurations whose bottleneck is already saturated (see
// internal/tuning and internal/report).
//
// Design rules:
//
//   - Every instrument method is safe on a nil receiver and compiles
//     to a single predictable branch there, so an uninstrumented
//     pattern pays (sub-)nanoseconds per record on the hot path
//     (BenchmarkNoop* prove the bound).
//   - Writers never take a lock; all state is atomic. Snapshots are
//     per-field atomic reads: totals are exact once writers quiesce
//     and monotonically consistent while they run.
//   - An instrument is a name plus, in a labelled family, one label
//     value kept exactly as given. Per-tenant, per-worker and
//     per-fault-class series are families
//     (CounterOf("cache.tenant.hits", tenant)), so an id never has to
//     be split back out of a key.
//   - A parrt pattern instance registers as one typed Pattern, keyed
//     by its kind and its name as given, holding its stage and worker
//     instruments; Analyze reads those instances, never a key string.
//   - The service, tenant, fleet and cache series (jobs.*, fleet.*,
//     cache.*) have no digest here: internal/report's status tables
//     read them straight from a Snapshot, and document their grammar.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, replica count).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every Histogram: bucket i
// holds samples v with bits.Len64(v) == i, i.e. exponential base-2
// bucket boundaries 0, 1, 2, 4, 8, ... — 63 buckets cover the whole
// non-negative int64 range (≈292 years in nanoseconds), so latency
// recording never needs range configuration.
const histBuckets = 64

// Histogram is a fixed-bucket latency histogram with power-of-two
// bucket boundaries, plus exact count/sum and approximate min/max.
// All operations are atomic; Record never allocates or locks.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid iff count > 0
	max     atomic.Int64
}

// bucketOf returns the bucket index for a sample value.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v)) // 0 for 0, else floor(log2(v))+1
}

// BucketLow returns the inclusive lower bound of bucket i
// (0, 1, 2, 4, 8, ...).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Record adds one sample (typically nanoseconds). Negative samples
// are clamped to zero. No-op on a nil receiver.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First sample initializes min/max; racing later samples fix
		// themselves up in the CAS loops below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// reset zeroes the histogram.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(0)
	h.max.Store(0)
}

// snapshot copies the histogram state with per-field atomic reads.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: BucketLow(i), Count: n})
		}
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Bucket is one non-empty histogram bucket: Low is the inclusive
// lower bound; the next bucket's Low (or Max) bounds it above.
type Bucket struct {
	Low   int64 `json:"low"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean sample, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, interpolating linearly within the winning bucket. The
// estimate is exact to within one power-of-two bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count-1)
	var seen float64
	for i, b := range s.Buckets {
		if rank < seen+float64(b.Count) {
			lo := float64(b.Low)
			var hi float64
			if i+1 < len(s.Buckets) {
				hi = lo * 2
			} else {
				hi = float64(s.Max) + 1
			}
			if hi <= lo {
				hi = lo + 1
			}
			frac := (rank - seen) / float64(b.Count)
			v := lo + frac*(hi-lo)
			return math.Min(v, float64(s.Max))
		}
		seen += float64(b.Count)
	}
	return float64(s.Max)
}

// Collector is a named registry of instruments. Instrument lookup
// takes a lock; the returned pointers are lock-free, so callers hoist
// lookups out of hot loops (the parrt patterns do this once at
// Instrument time). A nil *Collector is valid: every lookup returns a
// nil instrument, which records nothing.
type Collector struct {
	mu       sync.Mutex
	counters map[series]*Counter
	gauges   map[series]*Gauge
	hists    map[series]*Histogram
	patterns map[patternKey]*Pattern
}

// series identifies one instrument: a metric name and, for a member of
// a labelled family, its label value ("" for an unlabelled instrument).
type series struct{ name, label string }

// New returns an empty Collector.
func New() *Collector {
	return &Collector{
		counters: make(map[series]*Counter),
		gauges:   make(map[series]*Gauge),
		hists:    make(map[series]*Histogram),
		patterns: make(map[patternKey]*Pattern),
	}
}

// lookup returns (creating if needed) the instrument s in m.
func lookup[T any](c *Collector, m map[series]*T, s series) *T {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := m[s]
	if !ok {
		v = new(T)
		m[s] = v
	}
	return v
}

// Counter returns (creating if needed) the unlabelled counter named
// key. Returns nil on a nil Collector.
func (c *Collector) Counter(key string) *Counter { return c.CounterOf(key, "") }

// CounterOf returns (creating if needed) the counter of family name
// whose label is value, kept as given. Returns nil on a nil Collector.
func (c *Collector) CounterOf(name, value string) *Counter {
	if c == nil {
		return nil
	}
	return lookup(c, c.counters, series{name, value})
}

// Gauge returns (creating if needed) the unlabelled gauge named key.
// Returns nil on a nil Collector.
func (c *Collector) Gauge(key string) *Gauge { return c.GaugeOf(key, "") }

// GaugeOf returns (creating if needed) the gauge of family name whose
// label is value, kept as given. Returns nil on a nil Collector.
func (c *Collector) GaugeOf(name, value string) *Gauge {
	if c == nil {
		return nil
	}
	return lookup(c, c.gauges, series{name, value})
}

// Histogram returns (creating if needed) the unlabelled histogram named
// key. Returns nil on a nil Collector.
func (c *Collector) Histogram(key string) *Histogram { return c.HistogramOf(key, "") }

// HistogramOf returns (creating if needed) the histogram of family name
// whose label is value, kept as given. Returns nil on a nil Collector.
func (c *Collector) HistogramOf(name, value string) *Histogram {
	if c == nil {
		return nil
	}
	return lookup(c, c.hists, series{name, value})
}

// Snapshot is a point-in-time copy of every instrument in a
// Collector. Maps are fresh copies; mutating a snapshot never affects
// the live collector. Unlabelled instruments are keyed by name; the
// *Families maps hold labelled ones as name -> label value -> value;
// Patterns holds the pattern instances, sorted by kind then name.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Patterns   []PatternSnapshot       `json:"patterns,omitempty"`

	CounterFamilies   map[string]map[string]int64        `json:"counter_families,omitempty"`
	GaugeFamilies     map[string]map[string]int64        `json:"gauge_families,omitempty"`
	HistogramFamilies map[string]map[string]HistSnapshot `json:"histogram_families,omitempty"`
}

// Snapshot copies the current value of every instrument. Individual
// values are atomic reads; the set as a whole is weakly consistent
// while writers run and exact once they quiesce. Returns a zero
// Snapshot on a nil Collector.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Counters, s.CounterFamilies = make(map[string]int64, len(c.counters)), make(map[string]map[string]int64)
	for k, ct := range c.counters {
		put(s.Counters, s.CounterFamilies, k, ct.Value())
	}
	s.Gauges, s.GaugeFamilies = make(map[string]int64, len(c.gauges)), make(map[string]map[string]int64)
	for k, g := range c.gauges {
		put(s.Gauges, s.GaugeFamilies, k, g.Value())
	}
	s.Histograms, s.HistogramFamilies = make(map[string]HistSnapshot, len(c.hists)), make(map[string]map[string]HistSnapshot)
	for k, h := range c.hists {
		put(s.Histograms, s.HistogramFamilies, k, h.snapshot())
	}
	s.Patterns = c.snapshotPatterns()
	return s
}

// put stores v under k: in flat when k is unlabelled, else in its
// family of fams.
func put[V any](flat map[string]V, fams map[string]map[string]V, k series, v V) {
	if k.label == "" {
		flat[k.name] = v
		return
	}
	if fams[k.name] == nil {
		fams[k.name] = make(map[string]V)
	}
	fams[k.name][k.label] = v
}

// Reset zeroes every registered instrument (keys and pattern instances
// survive), so one Collector can be reused across tuning evaluations
// without re-instrumenting the patterns. No-op on a nil Collector.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ct := range c.counters {
		ct.v.Store(0)
	}
	for _, g := range c.gauges {
		g.v.Store(0)
	}
	for _, h := range c.hists {
		h.reset()
	}
	for _, p := range c.patterns {
		p.reset()
	}
}
