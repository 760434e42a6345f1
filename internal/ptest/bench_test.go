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
func corpusUnitTest(b testing.TB, prog, test string) *ptest.UnitTest {
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

// BenchmarkExplore times one exploration of a corpus unit test: the
// video pipeline, the most expensive test in the corpus (the bounded
// search stops at its 5000-schedule cap, the reduced one exhausts the
// pipeline's 4608 traces), and a data-parallel loop. The plain cases
// run the bounded search, the reduced ones patty.Validate's
// partial-order-reduced search. Beside the per-exploration figures it
// reports ns and allocations per schedule.
func BenchmarkExplore(b *testing.B) {
	bounded := sched.Options{PreemptionBound: 2, MaxSchedules: 5000}
	for _, bc := range []struct {
		name, prog, test string
		opt              sched.Options
	}{
		{"video", "video", "Process.L1.pipeline", bounded},
		{"nbody", "nbody", "Integrate.L0.data-parallel", bounded},
		{"video-reduced", "video", "Process.L1.pipeline", patty.ValidateOptions()},
		{"nbody-reduced", "nbody", "Integrate.L0.data-parallel", patty.ValidateOptions()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ut := corpusUnitTest(b, bc.prog, bc.test)
			opt := bc.opt
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

// TestExploreAllocsPerSchedule bounds the garbage of patty.Validate's
// search on the video pipeline at 57 allocations per schedule, half
// the 114.8 a schedule cost while every run set up fresh threads,
// objects and clocks. Runs now reuse them, and the search measures
// about 10 per schedule (2 vCPUs, Go 1.24), most of them the test
// body's own closures; the bound leaves the rest as slack for the
// runtime and the toolchain.
func TestExploreAllocsPerSchedule(t *testing.T) {
	ut := corpusUnitTest(t, "video", "Process.L1.pipeline")
	schedules := 0
	allocs := testing.AllocsPerRun(1, func() {
		schedules = ut.Run(patty.ValidateOptions()).Schedules
	})
	if per := allocs / float64(schedules); per > 57 {
		t.Errorf("%.1f allocations per schedule over %d schedules, want at most 57", per, schedules)
	}
}
