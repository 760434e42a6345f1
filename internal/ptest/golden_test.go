package ptest_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/ptest"
	"patty/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/explore_corpus.golden")

// goldenOptions are the exploration settings the bit-identity gate
// pins: the bounded search patty.Validate uses, an unbounded search
// capped by MaxSchedules, and seeded random walks.
var goldenOptions = []struct {
	name string
	opt  sched.Options
}{
	{"bounded", sched.Options{PreemptionBound: 2, MaxSchedules: 5000}},
	{"unbounded", sched.Options{PreemptionBound: -1, MaxSchedules: 3000}},
	{"random", sched.Options{RandomWalks: 200, Seed: 7}},
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
