package obs

import "testing"

// The parrt runtimes hold their Pattern's instrument pointers; when
// the pattern is uninstrumented the pointers are nil and each record
// must cost a single predictable branch. These benchmarks pin that
// contract; TestNoopOverheadBound enforces the <5ns budget in CI.

func BenchmarkNoopHistogramRecord(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkNoopCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkNoopStageStep is one stage iteration of parrt's pipeline
// hot loop (service histogram + input-queue counter) through the
// Stage of an uninstrumented Pattern, as NewPipeline builds it.
func BenchmarkNoopStageStep(b *testing.B) {
	m := Pattern{Stages: make([]Stage, 1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Stages[0].Service.Record(int64(i))
		m.Stages[0].QueueSum.Add(1)
	}
}

func BenchmarkEnabledHistogramRecord(b *testing.B) {
	c := New()
	h := c.Pattern(KindPipeline, "bench", []string{"s"}, 0).Stages[0].Service
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 1023))
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	c := New()
	ct := c.Pattern(KindPipeline, "bench", []string{"s"}, 0).Stages[0].QueueSum
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ct.Add(1)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	c := New()
	st := c.Pattern(KindPipeline, "bench", []string{"s"}, 0).Stages[0]
	for i := 0; i < 64; i++ {
		st.Service.Record(int64(i))
		st.QueueSum.Add(1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := c.Snapshot()
		if len(s.Patterns) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// TestNoopOverheadBound asserts the disabled-path budget from the
// observability contract: a nil instrument record costs < 5ns. The
// measurement is skipped under the race detector and -short (both
// inflate per-op cost by an order of magnitude without reflecting
// production behaviour).
func TestNoopOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates atomic/branch costs")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short")
	}
	res := testing.Benchmark(BenchmarkNoopStageStep)
	nsPerStep := float64(res.T.Nanoseconds()) / float64(res.N)
	t.Logf("noop stage step: %.2f ns/op over %d iterations", nsPerStep, res.N)
	// The step does two noop records; the budget is <5ns per record.
	if nsPerStep >= 10 {
		t.Fatalf("noop instrumentation costs %.2f ns per stage step (budget: <10ns for 2 records)", nsPerStep)
	}
	if res.AllocedBytesPerOp() != 0 {
		t.Fatalf("noop path allocates %d B/op", res.AllocedBytesPerOp())
	}
}
