package sched_test

import (
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/sched"
)

// TestReplayCountsOnCorpus pins the scheduling work of the corpus unit
// tests with the most runs: the scheduler's decisions and the baton
// hand-offs of the reduced search, and of the bounded one on video.
// A run fast-forwards through the steps it repeats from the previous
// run, so only its new steps reach the scheduler. Replaying every step
// through the scheduler made 368,640 decisions and 107,520 hand-offs
// on video, 64,512 and 18,816 on montecarlo, 25,344 and 7,392 on
// indexer, and 400,000 and 107,619 in video's bounded search.
func TestReplayCountsOnCorpus(t *testing.T) {
	bounded := sched.Options{PreemptionBound: 2, MaxSchedules: 5000}
	for _, tc := range []struct {
		name, prog, test  string
		opt               sched.Options
		decisions, grants int
	}{
		{"video", "video", "Process.L1.pipeline", patty.ValidateOptions(), 73920, 13354},
		{"montecarlo", "montecarlo", "EstimatePi.L1.pipeline", patty.ValidateOptions(), 16167, 2644},
		{"indexer", "indexer", "BuildIndex.L0.pipeline", patty.ValidateOptions(), 8045, 1321},
		{"video-bounded", "video", "Process.L1.pipeline", bounded, 58432, 5662},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := corpus.Get(tc.prog)
			w := p.Workload()
			arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
			if err != nil {
				t.Fatal(err)
			}
			for _, ut := range arts.UnitTests {
				if ut.Name != tc.test {
					continue
				}
				_, st := sched.ExploreStats(tc.opt, ut.Body)
				if st.Decisions != tc.decisions || st.Grants != tc.grants {
					t.Errorf("%d decisions and %d grants, want %d and %d", st.Decisions, st.Grants, tc.decisions, tc.grants)
				}
				return
			}
			t.Fatalf("%s has no unit test %s", tc.prog, tc.test)
		})
	}
}
