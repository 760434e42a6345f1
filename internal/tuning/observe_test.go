package tuning

import (
	"fmt"
	"math"
	"testing"

	"patty/internal/obs"
)

// simPipeline models a two-stage pipeline deterministically: stage s
// costs serviceNs[s] per item per lane, the run processes items
// elements, and the wall time is the throughput bound
// max_s(total_s / replicas_s). Each evaluation records exactly what
// an instrumented parrt.Pipeline would, so the test
// exercises the real Analyze -> DominatesAbove path without timing
// noise.
type simPipeline struct {
	collector *obs.Collector
	name      string
	serviceNs [2]int64
	items     int64
	runs      int
}

func (s *simPipeline) run(a map[string]int) float64 {
	s.runs++
	repl := [2]int64{int64(a[simKey(s.name, 0)]), int64(a[simKey(s.name, 1)])}
	var wall int64
	for i := range s.serviceNs {
		if t := s.serviceNs[i] * s.items / repl[i]; t > wall {
			wall = t
		}
	}
	p := s.collector.Pattern(obs.KindPipeline, s.name, make([]string, len(s.serviceNs)), 0)
	p.Wall.Add(wall)
	for i := range s.serviceNs {
		for j := int64(0); j < s.items; j++ {
			p.Stages[i].Service.Record(s.serviceNs[i])
		}
		p.Stages[i].Replicas.Set(repl[i])
	}
	return float64(wall)
}

// simKey is the replication parameter key of stage i of pipeline name.
func simKey(name string, i int) string {
	return fmt.Sprintf("pipeline.%s.stage.%d.replication", name, i)
}

func simDims(name string) []Dim {
	return []Dim{
		{Key: simKey(name, 0), Min: 1, Max: 4},
		{Key: simKey(name, 1), Min: 1, Max: 4},
	}
}

func simStart(name string) map[string]int {
	return map[string]int{simKey(name, 0): 1, simKey(name, 1): 1}
}

// TestLinearSearchEarlyStopPrunesDominated is the acceptance test for
// bottleneck-based early stop: with stage 1 four times as expensive as
// stage 0, every configuration that replicates stage 0 while stage 1
// is saturated is dominated. The observed search must skip those
// configurations, spend fewer evaluations than the blind search, and
// still find the same optimum.
func TestLinearSearchEarlyStopPrunesDominated(t *testing.T) {
	blind := &simPipeline{collector: obs.New(), name: "p", serviceNs: [2]int64{100, 400}, items: 100}
	blindRes := LinearSearch{}.Tune(simDims("p"), simStart("p"), blind.run, 100)

	sim := &simPipeline{collector: obs.New(), name: "p", serviceNs: [2]int64{100, 400}, items: 100}
	o := &Observed{Collector: sim.collector}
	res := LinearSearch{Observer: o}.Tune(simDims("p"), simStart("p"), o.Wrap(sim.run), 100)

	if res.Pruned == 0 {
		t.Fatal("observer-guided search pruned nothing")
	}
	if res.Evaluations >= blindRes.Evaluations {
		t.Fatalf("observed search used %d evaluations, blind used %d — pruning saved nothing",
			res.Evaluations, blindRes.Evaluations)
	}
	if res.BestCost != blindRes.BestCost {
		t.Fatalf("observed best cost %.0f != blind best cost %.0f", res.BestCost, blindRes.BestCost)
	}
	// The optimum balances both stages: stage 1 fully replicated.
	if got := res.Best["pipeline.p.stage.1.replication"]; got != 4 {
		t.Fatalf("best stage-1 replication = %d, want 4 (assignment %v)", got, res.Best)
	}
	t.Logf("blind: %d evals; observed: %d evals, %d pruned", blindRes.Evaluations, res.Evaluations, res.Pruned)
}

// TestLinearSearchPrunesGeneratedName: transform names every pattern
// "<Fn>.L<i>", so the pruning rule must find a saturated pipeline
// whose name contains a dot.
func TestLinearSearchPrunesGeneratedName(t *testing.T) {
	sim := &simPipeline{collector: obs.New(), name: "Process.L1", serviceNs: [2]int64{100, 400}, items: 100}
	o := &Observed{Collector: sim.collector}
	res := LinearSearch{Observer: o}.Tune(simDims(sim.name), simStart(sim.name), o.Wrap(sim.run), 100)
	if res.Pruned == 0 {
		t.Fatalf("observer-guided search over %q pruned nothing (%d evaluations)", sim.name, res.Evaluations)
	}
}

// TestObservedMetricsTrace checks requirement (b): each evaluated
// configuration leaves one ConfigMetrics entry whose analysis carries
// the per-stage utilizations of that very run.
func TestObservedMetricsTrace(t *testing.T) {
	sim := &simPipeline{collector: obs.New(), name: "p", serviceNs: [2]int64{100, 400}, items: 100}
	o := &Observed{Collector: sim.collector}
	res := LinearSearch{Observer: o}.Tune(simDims("p"), simStart("p"), o.Wrap(sim.run), 100)

	if len(o.Metrics) != res.Evaluations {
		t.Fatalf("metrics trace has %d entries, want %d (one per evaluation)",
			len(o.Metrics), res.Evaluations)
	}
	for i, m := range o.Metrics {
		if len(m.Analyses) != 1 {
			t.Fatalf("trace[%d]: %d analyses, want 1", i, len(m.Analyses))
		}
		a := m.Analyses[0]
		if a.Kind != obs.KindPipeline || a.Name != "p" || len(a.Stages) != 2 {
			t.Fatalf("trace[%d]: unexpected analysis %+v", i, a)
		}
		if a.BottleneckUtil <= 0 || a.WallNs <= 0 || m.Cost != float64(a.WallNs) {
			t.Fatalf("trace[%d]: analysis not populated from the run: %+v (cost %.0f)", i, a, m.Cost)
		}
	}
	// The recorded analysis must survive evaluator cache hits.
	if got := o.AnalysesFor(simStart("p")); len(got) != 1 {
		t.Fatalf("AnalysesFor(start) = %v", got)
	}
	if o.AnalysesFor(map[string]int{"never": 1}) != nil {
		t.Fatal("AnalysesFor must return nil for unseen assignments")
	}
}

// TestObservedFaultPenalized: faulted evaluations are penalized but
// recorded — a panicking objective and a run that drops items both
// cost +Inf and keep their ConfigMetrics entry marked Faulted, while
// healed retries keep the measured cost untouched.
func TestObservedFaultPenalized(t *testing.T) {
	c := obs.New()
	o := &Observed{Collector: c}

	// Panicking objective: the tuning loop must survive and record.
	crash := o.Wrap(func(a map[string]int) float64 { panic("worker died") })
	if cost := crash(map[string]int{"k": 1}); !math.IsInf(cost, 1) {
		t.Fatalf("panicking objective cost = %v, want +Inf", cost)
	}
	if len(o.Metrics) != 1 || !o.Metrics[0].Faulted {
		t.Fatalf("panic not recorded as faulted: %+v", o.Metrics)
	}

	// Lost work in the fault counters taints the measurement.
	lossy := o.Wrap(func(a map[string]int) float64 {
		p := c.Pattern(obs.KindParallelFor, "p", nil, 0)
		p.Wall.Add(1000)
		p.Faults.Errors.Add(2)
		return 1000
	})
	if cost := lossy(map[string]int{"k": 2}); !math.IsInf(cost, 1) {
		t.Fatalf("lossy run cost = %v, want +Inf", cost)
	}
	if len(o.Metrics) != 2 || !o.Metrics[1].Faulted {
		t.Fatalf("lossy run not recorded as faulted: %+v", o.Metrics[len(o.Metrics)-1])
	}

	// Healed retries are not lost work: real cost, not penalized.
	healed := o.Wrap(func(a map[string]int) float64 {
		p := c.Pattern(obs.KindParallelFor, "p", nil, 0)
		p.Wall.Add(1000)
		p.Faults.Retries.Add(5)
		return 1000
	})
	if cost := healed(map[string]int{"k": 3}); cost != 1000 {
		t.Fatalf("healed run cost = %v, want 1000", cost)
	}
	if m := o.Metrics[2]; m.Faulted || m.Analyses[0].FaultRetries != 5 {
		t.Fatalf("healed run mis-recorded: %+v", m)
	}
}

// TestDominatesAboveRules pins the pruning rule table.
func TestDominatesAboveRules(t *testing.T) {
	sim := &simPipeline{collector: obs.New(), name: "p", serviceNs: [2]int64{100, 400}, items: 100}
	o := &Observed{Collector: sim.collector}
	obj := o.Wrap(sim.run)
	start := simStart("p")
	obj(start) // stage 1 saturated, stage 0 at 0.25

	cases := []struct {
		key  string
		want bool
	}{
		{"pipeline.p.stage.0.replication", true},      // non-bottleneck stage
		{"pipeline.p.stage.1.replication", false},     // the bottleneck itself
		{"pipeline.p.buffersize", true},               // compute-bound: buffers can't help
		{"pipeline.other.stage.0.replication", false}, // different pipeline, no data
		{"masterworker.p.workers", false},             // worker counts never pruned
		{"parallelfor.p.chunksize", false},
		{"pipeline.p.sequentialexecution", false}, // not a capacity parameter
	}
	for _, tc := range cases {
		if got := o.DominatesAbove(tc.key, start); got != tc.want {
			t.Errorf("DominatesAbove(%q) = %v, want %v", tc.key, got, tc.want)
		}
	}
	if o.DominatesAbove("pipeline.p.stage.0.replication", map[string]int{"unseen": 1}) {
		t.Error("unseen assignment must not dominate")
	}
	var nilObs *Observed
	if nilObs.AnalysesFor(start) != nil {
		t.Error("nil Observed must return nil analyses")
	}
}
