package parrt

import (
	"testing"

	"patty/internal/obs"
)

// TestInstrumentGeneratedName: transform names every pattern
// "<Fn>.L<i>". All three runtimes instrumented under such a name must
// come out of obs.Analyze under that full name, with wall time, items,
// their named stages and their workers.
func TestInstrumentGeneratedName(t *testing.T) {
	const name = "Process.L1"
	c := obs.New()

	type item struct{ v int }
	pipe := NewPipeline(name, NewParams(),
		Stage[item]{Name: "crop", Replicable: true, Fn: func(it *item) { it.v++ }},
		Stage[item]{Name: "oil", Replicable: true, Fn: func(it *item) { it.v *= 2 }},
	).Instrument(c)
	items := make([]*item, 64)
	for i := range items {
		items[i] = &item{v: i}
	}
	pipe.Process(items)
	NewMasterWorker(name, NewParams(), 2, func(n int) int { return n * n }).Instrument(c).Process(make([]int, 32))
	NewParallelFor(name, NewParams(), 2).Instrument(c).For(1000, func(int) {})

	as := obs.Analyze(c.Snapshot())
	if len(as) != 3 {
		t.Fatalf("analyses = %+v, want one per pattern", as)
	}
	for _, a := range as {
		if a.Name != name || a.WallNs <= 0 || a.Items <= 0 {
			t.Errorf("%s %q: wall %d, items %d; want %q with both non-zero", a.Kind, a.Name, a.WallNs, a.Items, name)
		}
		switch a.Kind {
		case obs.KindPipeline:
			if len(a.Stages) != 2 || a.Stages[0].Name != "crop" || a.Stages[1].Name != "oil" {
				t.Errorf("pipeline stages = %+v, want crop and oil", a.Stages)
			}
		default:
			if len(a.Workers) != 2 {
				t.Errorf("%s workers = %+v, want 2", a.Kind, a.Workers)
			}
		}
	}
}
