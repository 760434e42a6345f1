package tuning

import (
	"testing"

	"patty/internal/obs"
	"patty/internal/parrt"
)

// BenchmarkObservedWrap is one evaluation of the tuning loop with
// runtime feedback: Observed.Wrap resets the collector, the objective
// runs a small batch through an instrumented five-stage pipeline (the
// stages of `patty tune`'s workload), and Wrap snapshots and analyzes
// the run.
func BenchmarkObservedWrap(b *testing.B) {
	type frame struct{ v int }
	step := func(f *frame) { f.v = f.v*31 + 7 }
	var stages []parrt.Stage[frame]
	for _, name := range []string{"crop", "histo", "oil", "conv", "add"} {
		stages = append(stages, parrt.Stage[frame]{Name: name, Replicable: true, Fn: step})
	}
	c := obs.New()
	pipe := parrt.NewPipeline("video", parrt.NewParams(), stages...).Instrument(c)
	frames := make([]*frame, 16)
	for i := range frames {
		frames[i] = &frame{v: i}
	}
	o := &Observed{Collector: c}
	eval := o.Wrap(func(map[string]int) float64 {
		pipe.Process(frames)
		return 1
	})
	a := map[string]int{"pipeline.video.stage.2.replication": 1}
	b.ReportAllocs()
	b.ResetTimer()
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = eval(a)
	}
	if cost != 1 {
		b.Fatalf("cost = %v, want the objective's 1 (a fault costs +Inf)", cost)
	}
}
