package ptest_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/ptest"
	"patty/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/explore_corpus.golden")

// goldenOptions are the exploration settings the bit-identity gate
// pins: the bounded search patty.Validate used before partial-order
// reduction, the full search (a preemption bound no run reaches)
// capped by MaxSchedules, seeded random walks, and the reduced search
// patty.Validate uses.
var goldenOptions = []struct {
	name string
	opt  sched.Options
}{
	{"bounded", sched.Options{PreemptionBound: 2, MaxSchedules: 5000}},
	{"unbounded", sched.Options{PreemptionBound: math.MaxInt, MaxSchedules: 3000}},
	{"random", sched.Options{RandomWalks: 200, Seed: 7}},
	{"reduced", patty.ValidateOptions()},
}

// corpusUnitTests parallelizes every corpus program with its sample
// workload and returns the generated unit tests, keyed program/test.
func corpusUnitTests(t testing.TB) (keys []string, uts []*ptest.UnitTest) {
	t.Helper()
	for _, p := range corpus.All() {
		w := p.Workload()
		arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, ut := range arts.UnitTests {
			keys = append(keys, p.Name+"/"+ut.Name)
			uts = append(uts, ut)
		}
	}
	return keys, uts
}

// TestExploreCorpusGolden is the scheduler's bit-identity gate: every
// corpus unit test explored under every goldenOptions setting must
// produce exactly the sched.Result recorded in the golden file —
// schedule counts, exhaustion, truncation, races with their schedules,
// deadlocks, failures and nondeterminism. Regenerate only with
// -update, after a change that is meant to alter which interleavings
// run.
func TestExploreCorpusGolden(t *testing.T) {
	keys, uts := corpusUnitTests(t)
	if len(uts) == 0 {
		t.Fatal("corpus produced no unit tests")
	}
	var buf bytes.Buffer
	for i, ut := range uts {
		for _, o := range goldenOptions {
			res := ut.Run(o.opt)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %s\n", keys[i], o.name, js)
		}
	}
	path := filepath.Join("testdata", "explore_corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/ptest -run ExploreCorpusGolden -update): %v", err)
	}
	got := strings.Split(buf.String(), "\n")
	exp := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, g, e)
		}
	}
}

// TestValidateKeepsBoundedVerdicts: under patty.Validate's reduced
// search every corpus unit test reports the races (Var, Kind,
// Threads), deadlocks and failures of the bounded search it replaced,
// and every test but the video pipeline exhausts its trace space.
func TestValidateKeepsBoundedVerdicts(t *testing.T) {
	keys, uts := corpusUnitTests(t)
	for i, ut := range uts {
		got := ut.Run(patty.ValidateOptions())
		want := ut.Run(sched.Options{PreemptionBound: 2, MaxSchedules: 5000})
		if g, w := verdict(got), verdict(want); !slices.Equal(g, w) {
			t.Errorf("%s: reduced verdict %v, bounded %v", keys[i], g, w)
		}
		if !got.Exhausted && keys[i] != "video/Process.L1.pipeline" {
			t.Errorf("%s: the reduced search stopped after %d schedules", keys[i], got.Schedules)
		}
	}
}

// verdict lists a result's races by Var, Kind and Threads, and its
// deadlock and failure messages, sorted.
func verdict(r sched.Result) []string {
	var out []string
	for _, x := range r.Races {
		out = append(out, fmt.Sprintf("race %s %s %v", x.Var, x.Kind, x.Threads))
	}
	for _, d := range r.Deadlocks {
		out = append(out, "deadlock "+d.Msg)
	}
	for _, f := range r.Failures {
		out = append(out, "failure "+f.Msg)
	}
	slices.Sort(out)
	return out
}
