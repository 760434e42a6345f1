//go:build linux

package main

import (
	"math"
	"testing"
)

func TestTailOK(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		want bool
	}{
		{99, 90, false},
		{100, 90, true},
		{100, 10, true},
		{99, 10, false},
		{999, 99, false},
		{1000, 99, true},
		{199, 95, false},
		{200, 95, true},
	} {
		if got := tailOK(tc.n, tc.p); got != tc.want {
			t.Errorf("tailOK(%d, %d) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10},
	} {
		if got := percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
}

func TestSummarizeOmitsShortTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n                  int
		p10, p90, p99, has bool
	}{
		{0, false, false, false, false},
		{1, false, false, false, true},
		{99, false, false, false, true},
		{100, true, true, false, true},
		{999, true, true, false, true},
		{1000, true, true, true, true},
	} {
		s, ok := summarize(seq(tc.n))
		if ok != tc.has {
			t.Fatalf("n=%d: ok=%v", tc.n, ok)
		}
		if !ok {
			continue
		}
		if (s.P10 != nil) != tc.p10 || (s.P90 != nil) != tc.p90 || (s.P99 != nil) != tc.p99 {
			t.Errorf("n=%d: p10 %v p90 %v p99 %v, want %v %v %v", tc.n, s.P10 != nil, s.P90 != nil, s.P99 != nil, tc.p10, tc.p90, tc.p99)
		}
		if s.N != tc.n || s.Median != float64(tc.n+1)/2 {
			t.Errorf("n=%d: N %d median %v", tc.n, s.N, s.Median)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4),
// which is how run-to-run spread is judged; the expected values were
// computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1.0, 3.0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10.5, 10.1, 9.9, 10.0, 10.2, 10.3, 9.8, 10.4, 10.6, 10.05}, 9.975, 10.425},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

func TestSpread(t *testing.T) {
	s, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", s, ok)
	}
	if s, ok := spread([]float64{0, 0, 0}); !ok || s != 0 {
		t.Errorf("all-zero spread = %v, %v", s, ok)
	}
}

// The per-input median ignores the extreme repeats of the two inputs the
// pooled median falls between.
func TestInputMedian(t *testing.T) {
	opMs := []float64{1, 1.1, 9, 20, 16, 16.5, 30, 31, 32}
	input := []string{"a", "a", "b", "c", "c", "c", "d", "d", "b"}
	// medians a 1.05, b 20.5, c 16.5, d 30.5; pooled median 16.5
	if got, want := inputMedian(opMs, input), (16.5+20.5)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("inputMedian = %v, want %v", got, want)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 1}, {2, 3}}, 2},
		{[][2]float64{{0, 2}, {1, 3}}, 3},
		{[][2]float64{{0, 4}, {1, 2}}, 4},
		{[][2]float64{{2, 3}, {0, 1}, {0.5, 2.5}}, 3},
		{[][2]float64{{1, 1}, {3, 2}}, 0},
	} {
		if got := unionLen(tc.iv); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("unionLen(%v) = %v, want %v", tc.iv, got, tc.want)
		}
	}
}
