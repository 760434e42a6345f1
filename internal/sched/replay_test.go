package sched_test

import (
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/sched"
)

// TestReplayCountsOnCorpus pins the scheduler decisions of the corpus
// unit tests with the most runs, under the reduced search, and of the
// bounded one on video. A run replays the steps it repeats from the
// previous run without the scheduler, so only its new steps reach it.
// Replaying every step through the scheduler made 368,640 decisions on
// video, 64,512 on montecarlo, 25,344 on indexer and 400,000 in
// video's bounded search.
func TestReplayCountsOnCorpus(t *testing.T) {
	bounded := sched.Options{PreemptionBound: 2, MaxSchedules: 5000}
	for _, tc := range []struct {
		name, prog, test string
		opt              sched.Options
		decisions        int
	}{
		{"video", "video", "Process.L1.pipeline", patty.ValidateOptions(), 73920},
		{"montecarlo", "montecarlo", "EstimatePi.L1.pipeline", patty.ValidateOptions(), 16167},
		{"indexer", "indexer", "BuildIndex.L0.pipeline", patty.ValidateOptions(), 8045},
		{"video-bounded", "video", "Process.L1.pipeline", bounded, 58432},
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
				if st.Decisions != tc.decisions {
					t.Errorf("%d decisions, want %d", st.Decisions, tc.decisions)
				}
				return
			}
			t.Fatalf("%s has no unit test %s", tc.prog, tc.test)
		})
	}
}
