package ptest_test

import (
	"runtime"
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/ptest"
	"patty/internal/sched"
)

// corpusUnitTest returns the generated unit test named test of corpus
// program prog.
func corpusUnitTest(b *testing.B, prog, test string) *ptest.UnitTest {
	b.Helper()
	p := corpus.Get(prog)
	if p == nil {
		b.Fatalf("no corpus program %s", prog)
	}
	w := p.Workload()
	arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
	if err != nil {
		b.Fatal(err)
	}
	for _, ut := range arts.UnitTests {
		if ut.Name == test {
			return ut
		}
	}
	b.Fatalf("%s has no unit test %s", prog, test)
	return nil
}

// BenchmarkExplore times one bounded exploration (patty.Validate's
// settings) of a corpus unit test: the video pipeline, the most
// expensive test in the corpus (it stops at the 5000-schedule cap),
// and a data-parallel loop that is explored exhaustively. Beside the
// per-exploration figures it reports ns and allocations per schedule.
func BenchmarkExplore(b *testing.B) {
	for _, bc := range []struct{ name, prog, test string }{
		{"video", "video", "Process.L1.pipeline"},
		{"nbody", "nbody", "Integrate.L0.data-parallel"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ut := corpusUnitTest(b, bc.prog, bc.test)
			opt := sched.Options{PreemptionBound: 2, MaxSchedules: 5000}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			schedules := 0
			for i := 0; i < b.N; i++ {
				schedules += ut.Run(opt).Schedules
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(schedules), "ns/schedule")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(schedules), "allocs/schedule")
		})
	}
}
