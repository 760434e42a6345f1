//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Verdicts of a comparison.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// benchmarkSpec is the part of BENCHMARK.json a comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bound is the regression bound of one end-to-end metric: the value
// from BENCHMARK.json; failed_share tolerates no rise at all (absolute
// bound 0). The unbounded latency metrics did not repeat within any
// bound the benchmark may set (README.md), so the envelope reports them
// and -compare gives them no verdict.
type bound struct {
	rel      float64
	lower    bool // smaller is better
	absolute bool
}

func loadBounds() (map[string]bound, error) {
	out := map[string]bound{"failed_share": {lower: true, absolute: true}}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{rel: m.Bound, lower: m.Better == "lower"}
	}
	return out, nil
}

// minPairs is the number of paired runs a gain within the bound needs.
const minPairs = 10

// verdict compares the runs of one (workload, metric): old and new hold
// one value per run. A change regresses when its median is worse than
// the old median by more than the bound. When the old side's own
// spread is wider than the bound, the answer is unresolved instead,
// unless every new run reads better (or worse) than every old one. A
// gain counts when the new side wins at least nine pairs in ten over
// at least ten pairs (ties count for neither) and the medians differ by
// more than the old side's interquartile range, or, with fewer runs,
// when it beats the bound. An absolute bound (failed_share) flags any
// rise of the worst run.
func verdict(old, cur []float64, b bound) (string, float64) {
	mo, mn := median(old), median(cur)
	worse := mn - mo // > 0 is worse
	if !b.lower {
		worse = -worse
	}
	rel := 0.0
	if mo != 0 {
		rel = worse / math.Abs(mo)
	} else if worse != 0 {
		rel = math.Copysign(math.Inf(1), worse)
	}
	if b.absolute {
		// No rise is tolerated: the worst new run against the worst old one.
		switch wo, wn := slices.Max(old), slices.Max(cur); {
		case wn > wo:
			return regressed, rel
		case wn < wo:
			return improved, rel
		}
		return unchanged, rel
	}
	better := func(x, y float64) bool { // x reads better than y
		if b.lower {
			return x < y
		}
		return x > y
	}
	if s, ok := spread(old); ok && s > b.rel {
		switch {
		case allBeat(cur, old, better):
			return improved, rel
		case allBeat(old, cur, better) && rel > b.rel:
			return regressed, rel
		}
		return unresolved, rel
	}
	if rel > b.rel {
		return regressed, rel
	}
	pairs, wins := min(len(old), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], old[i]) {
			wins++
		}
	}
	q1, q3, _ := quartiles(old)
	switch {
	case pairs >= minPairs && wins*10 >= pairs*9 && math.Abs(mn-mo) > q3-q1:
		return improved, rel
	case pairs < minPairs && rel < -b.rel:
		return improved, rel
	}
	return unchanged, rel
}

// allBeat reports whether every value of a reads better than every
// value of b.
func allBeat(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareRow is one (workload, metric) verdict.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians over runs
	Change                 float64 // relative, > 0 is worse
	Verdict                string
}

// compareEnvelopes compares the end-to-end metrics of two sets of
// envelopes, each envelope one run. A workload that any envelope flags
// invalid (its load generator fell behind) gets unresolved on every row
// but failed_share: its numbers measure the generator, not the program,
// while lag does not make an answer right or wrong.
func compareEnvelopes(old, cur []*envelope, bounds map[string]bound) []compareRow {
	invalid := make(map[string]bool)
	collect := func(envs []*envelope) map[[2]string][]float64 {
		out := make(map[[2]string][]float64)
		for _, env := range envs {
			for w, why := range env.Invalid {
				if len(why) > 0 {
					invalid[w] = true
				}
			}
			for _, r := range env.Metrics {
				if r.Layer == "end_to_end" {
					k := [2]string{r.Workload, r.Name}
					out[k] = append(out[k], r.Median)
				}
			}
		}
		return out
	}
	ov, nv := collect(old), collect(cur)
	var rows []compareRow
	for k, o := range ov {
		n, ok := nv[k]
		if !ok {
			continue
		}
		b, ok := bounds[k[1]]
		if !ok {
			continue
		}
		d, _ := metricByName(k[1])
		v, change := verdict(o, n, b)
		if invalid[k[0]] && !b.absolute {
			v = unresolved
		}
		rows = append(rows, compareRow{k[0], k[1], d.Unit, median(o), median(n), change, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

func readEnvelopes(list string) ([]*envelope, error) {
	var out []*envelope
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &env)
	}
	return out, nil
}

// runCompare is -compare old[,old...] new[,new...]: one verdict per
// (workload, end-to-end metric); exit status 1 on any regression.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two arguments: old.json[,...] new.json[,...]")
		return 2
	}
	old, err := readEnvelopes(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cur, err := readEnvelopes(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compareEnvelopes(old, cur, bounds)
	code := 0
	fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-14s %-18s %14.4f %14.4f %+8.1f%%  %s\n", r.Workload, r.Metric, r.Old, r.New, 100*r.Change, r.Verdict)
		if r.Verdict == regressed {
			code = 1
		}
	}
	return code
}
