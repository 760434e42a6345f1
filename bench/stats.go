//go:build linux

package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p90 needs 100 samples, a p99 needs 1000. A
// percentile with a shorter tail is omitted, never printed.
const minTail = 10

// tailOK reports whether percentile p (0 < p < 100) of n samples has at
// least minTail samples beyond it on its own side of the median.
// Integer arithmetic keeps the boundary exact (n=100, p=90 is allowed).
func tailOK(n, p int) bool {
	side := 100 - p
	if p < 50 {
		side = p
	}
	return n*side >= minTail*100
}

// percentile returns the p-th percentile of sorted samples by linear
// interpolation between the closest ranks.
func percentile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Summary is a sample distribution as the envelope reports it: the
// median always, each tail only when it has minTail samples beyond it.
type Summary struct {
	Median float64  `json:"median"`
	P10    *float64 `json:"p10,omitempty"`
	P90    *float64 `json:"p90,omitempty"`
	P99    *float64 `json:"p99,omitempty"`
	N      int      `json:"n"`
}

// summarize reduces xs to a Summary; ok is false for an empty sample.
func summarize(xs []float64) (s Summary, ok bool) {
	if len(xs) == 0 {
		return Summary{}, false
	}
	sorted := sortedCopy(xs)
	s = Summary{Median: percentile(sorted, 50), N: len(sorted)}
	tail := func(p int) *float64 {
		if !tailOK(len(sorted), p) {
			return nil
		}
		v := percentile(sorted, float64(p))
		return &v
	}
	s.P10, s.P90, s.P99 = tail(10), tail(90), tail(99)
	return s, true
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), which is how run-to-run spread is judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	d := sortedCopy(xs)
	ld := len(d)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// spread is the interquartile range of xs as a share of its median:
// the run-to-run noise a bound must exceed.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return 0, false
	}
	med := median(xs)
	if med == 0 {
		return 0, q3 == q1
	}
	return (q3 - q1) / math.Abs(med), true
}
