//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
)

// childResult is what one workload run reports to the parent: raw
// samples, so every statistic is computed in one place.
type childResult struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Invalid says why the run's numbers cannot be trusted (a load
	// generator that fell behind its schedule).
	Invalid string `json:"invalid,omitempty"`

	SetupS []float64 `json:"setup_s"`
	WallS  float64   `json:"wall_s"`
	OpMs   []float64 `json:"op_ms"`
	// OpInput names the input each op ran, where inputs repeat
	// (verify-corpus: the program); see e2eValue.
	OpInput   []string  `json:"op_input,omitempty"`
	CachedMs  []float64 `json:"cached_op_ms,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`

	Layers map[string][]float64 `json:"layers,omitempty"`
	Spans  []span               `json:"spans,omitempty"`

	mu sync.Mutex
}

// maxErrors bounds the failure messages a result carries.
const maxErrors = 5

func (r *childResult) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// layer records one per-layer sample.
func (r *childResult) layer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Layers == nil {
		r.Layers = make(map[string][]float64)
	}
	r.Layers[name] = append(r.Layers[name], v)
}

// e2eValue computes one end-to-end metric of a run; ok is false where
// the run has no honest value for it (too few samples for the tail,
// no cached class).
func (r *childResult) e2eValue(name string) (float64, bool) {
	tail := func(xs []float64, p int) (float64, bool) {
		if len(xs) == 0 || (p != 50 && !tailOK(len(xs), p)) {
			return 0, false
		}
		return percentile(sortedCopy(xs), float64(p)), true
	}
	switch name {
	case "setup_s":
		return median(r.SetupS), len(r.SetupS) > 0
	case "ops_per_s":
		return float64(len(r.OpMs)) / r.WallS, r.WallS > 0
	case "op_p50_ms":
		if len(r.OpInput) > 0 {
			return inputMedian(r.OpMs, r.OpInput), true
		}
		return tail(r.OpMs, 50)
	case "op_p90_ms":
		return tail(r.OpMs, 90)
	case "op_p99_ms":
		return tail(r.OpMs, 99)
	case "failed_share":
		return float64(r.Failed) / float64(r.Attempted), r.Attempted > 0
	case "cached_op_p50_ms":
		return tail(r.CachedMs, 50)
	case "peak_rss_mb":
		return r.PeakRSSMB, r.PeakRSSMB > 0
	}
	return 0, false
}

// inputMedian is the median over distinct inputs of each input's median
// latency. verify-corpus repeats 18 programs equally often, so the
// pooled median of its ops always falls between the 9th and 10th
// program by cost: the mean of the slowest run of one (about 7 ms) and
// the fastest run of the next (about 16 ms), which read 9.0-12.4 ms over
// ten runs. The median of per-program medians is the same point of the
// mix without resting on two extreme samples.
func inputMedian(opMs []float64, input []string) float64 {
	by := make(map[string][]float64)
	for i, v := range opMs {
		by[input[i]] = append(by[input[i]], v)
	}
	var meds []float64
	for _, xs := range by {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// layerValue is the per-layer value the per-run result line reports: the
// median sample, or 0 for a layer the workload never entered.
func (r *childResult) layerValue(name string) float64 {
	if xs := r.Layers[name]; len(xs) > 0 {
		return median(xs)
	}
	return 0
}

// metricValue is one metric of the per-run result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the per-run interface prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runLine reduces a run to the BENCHMARK.json metrics: every
// end-to-end metric untraced, every per-layer metric traced.
func runLine(r *childResult, traced bool) (resultLine, error) {
	line := resultLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricValue),
	}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{r.layerValue(d.Name), d.Unit}
		}
		return line, nil
	}
	for _, d := range endToEnd {
		if !d.Bounded {
			continue
		}
		v, ok := r.e2eValue(d.Name)
		if !ok {
			return line, fmt.Errorf("%s: no value for %s (%d ops; run longer)", r.Workload, d.Name, len(r.OpMs))
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return line, nil
}

// record is one metric of the envelope.
type record struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Summary
}

// envelope is the file a full run writes: host, seed and one record
// per (workload, metric). It holds one run of each workload, so Reps
// is always 1; repeated runs are separate envelopes.
type envelope struct {
	Host       string  `json:"host"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	// TraceOverhead is traced op_p50_ms over untraced op_p50_ms, for
	// the overheadWorkloads (traced runs only).
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	// CoreOtherShare is verify-corpus core.other_ms as a share of op
	// time (traced runs only; must stay at or below 0.10).
	CoreOtherShare *float64 `json:"core_other_share,omitempty"`
	// Inputs fingerprints each workload's seeded op schedule.
	Inputs map[string]string `json:"inputs"`
	// Invalid lists, per workload, why a run's numbers cannot be
	// trusted (a load generator that fell behind its schedule).
	Invalid map[string][]string `json:"invalid,omitempty"`
	Metrics []record            `json:"metrics"`
}

// e2eRecords holds one run's end-to-end metrics; n is 1, because an
// envelope is one run. -compare pairs envelopes run by run.
func e2eRecords(workload string, r *childResult) []record {
	var out []record
	for _, d := range endToEnd {
		if v, ok := r.e2eValue(d.Name); ok {
			s, _ := summarize([]float64{v})
			out = append(out, record{workload, "end_to_end", d.Name, d.Unit, s})
		}
	}
	return out
}

// layerRecords summarizes every per-layer sample of a traced run, so n
// is the number of ops (or shards, probe calls) measured.
func layerRecords(workload string, r *childResult) []record {
	var out []record
	for _, d := range perLayer {
		if s, ok := summarize(r.Layers[d.Name]); ok {
			layer, _, _ := strings.Cut(d.Name, ".")
			out = append(out, record{workload, layer, d.Name, d.Unit, s})
		}
	}
	return out
}

// overheadWorkloads are the workloads whose traced op makes the same
// calls as the untraced one, so traced over untraced op_p50_ms is the
// cost of tracing. A traced tune-fleet op runs the coordinator in this
// process instead of spawning patty tune, and serve-mix traces after
// its load, so a ratio there would compare different things.
var overheadWorkloads = []string{"verify-corpus", "fuzz-gate"}

// runFull runs every workload once (with -trace, untraced then traced),
// prints each end-to-end metric and writes the envelope.
func runFull(root string, cfg config, outPath, traceOut string, stdout, stderr io.Writer) int {
	bin, err := buildPatty(root, cfg.workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg.patty = bin
	traced := cfg.trace
	env := envelope{Seed: cfg.seed, Reps: 1, Seconds: cfg.seconds, Inputs: make(map[string]string)}
	hostInfo(&env)
	allSpans := make(map[string][]span)
	failed := false
	for _, w := range workloads {
		c := cfg
		c.workload = w
		c.trace = false
		env.Inputs[w] = inputHash(w, cfg.seed)
		plain, err := spawnChild(c, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		runs := []*childResult{plain}
		env.Metrics = append(env.Metrics, e2eRecords(w, plain)...)
		if traced {
			c.trace, c.spans = true, traceOut != ""
			withTrace, err := spawnChild(c, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			runs = append(runs, withTrace)
			allSpans[w] = withTrace.Spans
			env.Metrics = append(env.Metrics, layerRecords(w, withTrace)...)
			if slices.Contains(overheadWorkloads, w) {
				if env.TraceOverhead == nil {
					env.TraceOverhead = make(map[string]float64)
				}
				tv, _ := withTrace.e2eValue("op_p50_ms")
				pv, _ := plain.e2eValue("op_p50_ms")
				env.TraceOverhead[w] = tv / pv
			}
			if w == "verify-corpus" {
				share := coreOtherShare(withTrace)
				env.CoreOtherShare = &share
			}
		}
		for _, r := range runs {
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "bench: %s: failure: %s\n", w, e)
			}
			if r.Failed > 0 {
				failed = true
			}
			if r.Invalid != "" {
				fmt.Fprintf(stderr, "bench: %s: invalid run: %s\n", w, r.Invalid)
				if env.Invalid == nil {
					env.Invalid = make(map[string][]string)
				}
				env.Invalid[w] = append(env.Invalid[w], r.Invalid)
			}
		}
	}
	printEnvelope(stdout, &env)
	if outPath != "" {
		if err := writeJSON(outPath, &env); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if traceOut != "" {
		if err := writeJSON(traceOut, allSpans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// coreOtherShare is the share of verify-corpus op time no layer
// metric accounts for.
func coreOtherShare(r *childResult) float64 {
	var other, total float64
	for _, v := range r.Layers["core.other_ms"] {
		other += v
	}
	for _, v := range r.OpMs {
		total += v
	}
	return other / total
}

func printEnvelope(w io.Writer, env *envelope) {
	fmt.Fprintf(w, "host %s (%s), nproc %d, gomaxprocs %d, %s, seed %d, commit %s, reps %d\n",
		env.Host, env.CPU, env.NProc, env.GOMAXPROCS, env.Go, env.Seed, env.Commit, env.Reps)
	for _, r := range env.Metrics {
		fmt.Fprintf(w, "%-14s %-28s %14.4f %-6s n=%d\n", r.Workload, r.Name, r.Median, r.Unit, r.N)
	}
	for _, name := range workloads {
		if v, ok := env.TraceOverhead[name]; ok {
			fmt.Fprintf(w, "%-14s trace overhead %.3fx (traced op_p50 / untraced op_p50)\n", name, v)
		}
	}
	if env.CoreOtherShare != nil {
		fmt.Fprintf(w, "verify-corpus core.other share of op time: %.4f\n", *env.CoreOtherShare)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
