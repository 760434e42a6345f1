//go:build linux

package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := bound{rel: 0.10, lower: true}
	higher := bound{rel: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		old, cur []float64
		b        bound
		want     string
	}{
		{"same runs", steady, steady, lower, unchanged},
		{"within bound", steady, scale(steady, 1.05), lower, unchanged},
		{"worse than bound", steady, scale(steady, 1.2), lower, regressed},
		{"better in every pair", steady, scale(steady, 0.8), lower, improved},
		{"higher is better, dropped", steady, scale(steady, 0.8), higher, regressed},
		{"higher is better, rose", steady, scale(steady, 1.2), higher, improved},
		{"better median but no 9/10 pairs", steady,
			[]float64{97, 97, 97, 97, 97, 97, 97, 97, 120, 120}, lower, unchanged},
		{"noisy old side", []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, steady, lower, unresolved},
		{"noisy old side, every new run better", []float64{150, 200, 160, 240, 180, 170, 230, 190, 210, 200}, steady, lower, improved},
		{"one run a side, worse", []float64{100}, []float64{111}, lower, regressed},
		{"one run a side, near", []float64{100}, []float64{105}, lower, unchanged},
		{"one run a side, better", []float64{100}, []float64{85}, lower, improved},
		{"three pairs all won, within bound", []float64{100, 101, 99}, []float64{95, 96, 94}, lower, unchanged},
		{"three pairs, beyond bound", []float64{100, 101, 99}, []float64{80, 81, 79}, lower, improved},
		{"failed share rises in one run", []float64{0, 0, 0}, []float64{0, 0.001, 0}, bound{lower: true, absolute: true}, regressed},
		{"failed share stays", []float64{0, 0.002}, []float64{0.002, 0}, bound{lower: true, absolute: true}, unchanged},
		{"failed share falls", []float64{0.01}, []float64{0}, bound{lower: true, absolute: true}, improved},
	} {
		if got, _ := verdict(tc.old, tc.cur, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// syntheticEnvelope writes an envelope holding the given end-to-end
// medians for one workload; a non-empty invalid flags the run invalid.
func syntheticEnvelope(t *testing.T, dir, name string, vals map[string]float64, invalid string) string {
	t.Helper()
	env := envelope{Reps: 1}
	if invalid != "" {
		env.Invalid = map[string][]string{"fuzz-gate": {invalid}}
	}
	for metric, v := range vals {
		d, _ := metricByName(metric)
		env.Metrics = append(env.Metrics, record{"fuzz-gate", "end_to_end", metric, d.Unit, Summary{Median: v, N: 1}})
	}
	env.Metrics = append(env.Metrics, record{"fuzz-gate", "interp", "interp.vm_run_ms", "ms", Summary{Median: 99, N: 500}})
	path := filepath.Join(dir, name)
	if err := writeJSON(path, &env); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	var olds, sames []string
	for i := 0; i < 3; i++ {
		j := float64(i) * 0.01
		olds = append(olds, syntheticEnvelope(t, dir, "old"+string(rune('a'+i))+".json",
			map[string]float64{"ops_per_s": 200 + j, "op_p50_ms": 4 + j, "peak_rss_mb": 30 + j, "failed_share": 0}, ""))
		sames = append(sames, syntheticEnvelope(t, dir, "same"+string(rune('a'+i))+".json",
			map[string]float64{"ops_per_s": 200 - j, "op_p50_ms": 4 - j, "peak_rss_mb": 30 - j, "failed_share": 0}, ""))
	}
	slowerVals := map[string]float64{"ops_per_s": 120, "op_p50_ms": 4, "peak_rss_mb": 30, "failed_share": 0}
	slower := syntheticEnvelope(t, dir, "slower.json", slowerVals, "")
	lagging := syntheticEnvelope(t, dir, "lagging.json", slowerVals, "load generator lag p99 7.2 ms > 5 ms")
	failing := syntheticEnvelope(t, dir, "failing.json", map[string]float64{"ops_per_s": 200, "op_p50_ms": 4, "peak_rss_mb": 30, "failed_share": 0.01}, "")

	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", strings.Join(olds, ","), strings.Join(sames, ",")}, &out, &errOut); code != 0 {
		t.Fatalf("same code compared as regression (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
	// op_p50_ms has no bound, so it gets no row.
	rows := strings.Count(out.String(), unchanged)
	if rows != 3 || strings.Contains(out.String(), "op_p50_ms") || strings.Contains(out.String(), "interp.vm_run_ms") {
		t.Errorf("want 3 unchanged end-to-end rows, no unbounded and no per-layer rows:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-compare", olds[0], slower}, &out, &errOut); code != 1 {
		t.Errorf("40%% throughput drop: exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), regressed) {
		t.Errorf("no regressed row:\n%s", out.String())
	}

	// The same drop in a run flagged invalid is no verdict at all.
	out.Reset()
	if code := run([]string{"-compare", olds[0], lagging}, &out, &errOut); code != 0 {
		t.Errorf("invalid run: exit %d, want 0:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), regressed) || strings.Count(out.String(), unresolved) != 2 {
		t.Errorf("invalid run: want every row but failed_share unresolved:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-compare", olds[0], failing}, &out, &errOut); code != 1 {
		t.Errorf("failed_share rise: exit %d, want 1:\n%s", code, out.String())
	}

	if code := run([]string{"-compare", olds[0]}, &out, &errOut); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := run([]string{"-compare", filepath.Join(dir, "missing.json"), olds[0]}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
