package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/sched"
)

// full is the unreduced search (a preemption bound no run reaches),
// reduced the partial-order-reduced one (a negative bound).
var (
	full    = sched.Options{PreemptionBound: math.MaxInt, MaxSchedules: 20000}
	reduced = sched.Options{PreemptionBound: -1, MaxSchedules: 20000}
)

// verdict is what an exploration must agree on with and without the
// reduction: the races by variable, kind and threads, and the deadlock
// and failure messages. Witness schedules may differ.
func verdict(r sched.Result) string {
	var lines []string
	for _, x := range r.Races {
		lines = append(lines, fmt.Sprintf("race %s %s %v", x.Var, x.Kind, x.Threads))
	}
	for _, d := range r.Deadlocks {
		lines = append(lines, "deadlock "+d.Msg)
	}
	for _, f := range r.Failures {
		lines = append(lines, "failure "+f.Msg)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// compareSearches explores body with the reduction and requires the
// verdict of want, body's full search, from at most as many runs, none
// of them sleep-blocked.
func compareSearches(t *testing.T, name string, body func(*sched.World), want sched.Result) {
	t.Helper()
	got, blocked := sched.ExploreBlocked(reduced, body)
	if !want.Exhausted || !got.Exhausted {
		t.Fatalf("%s: exhausted: full %v, reduced %v", name, want.Exhausted, got.Exhausted)
	}
	if got.Schedules > want.Schedules {
		t.Errorf("%s: reduced search ran %d schedules, full search %d", name, got.Schedules, want.Schedules)
	}
	if blocked != 0 {
		t.Errorf("%s: %d of the reduced search's %d runs ended sleep-blocked", name, blocked, got.Schedules)
	}
	if g, w := verdict(got), verdict(want); g != w {
		t.Errorf("%s: reduced verdict\n%s\nfull verdict\n%s", name, g, w)
	}
}

// randomProgram builds a seeded program of 2 or 3 threads over two
// Vars, two Mutexes and channels of capacity 1 and 2. Threads read,
// write, take one or two locks in either order, lock a mutex for good
// or unlock one they may not hold, send, receive, close and yield; an
// oracle fails on some final states.
func randomProgram(seed int64) (string, func(*sched.World)) {
	r := rand.New(rand.NewSource(seed))
	// Operation budgets per thread keep the full search under 5000
	// interleavings: C(12,6) = 924 for two threads, 10!/(4!3!3!) =
	// 4200 for three.
	budgets := [][]int{{6, 6}, {4, 3, 3}}[r.Intn(2)]
	cost := []int{1, 1, 3, 4, 1, 2, 1, 1, 1, 1}
	type action struct{ kind, a, b int }
	prog := make([][]action, len(budgets))
	var desc []string
	for t, left := range budgets {
		var d []string
		for left > 0 && (len(prog[t]) == 0 || r.Intn(4) > 0) {
			a := action{kind: r.Intn(len(cost)), a: r.Intn(2), b: r.Intn(2)}
			if cost[a.kind] > left {
				continue
			}
			left -= cost[a.kind]
			prog[t] = append(prog[t], a)
			d = append(d, fmt.Sprintf("%d%d%d", a.kind, a.a, a.b))
		}
		desc = append(desc, strings.Join(d, ","))
	}
	body := func(w *sched.World) {
		vars := []*sched.Var{w.Var("x", 0), w.Var("y", 0)}
		mus := []*sched.Mutex{w.Mutex("m0"), w.Mutex("m1")}
		chans := []*sched.Chan{w.Chan("c1", 1), w.Chan("c2", 2)}
		for t, acts := range prog {
			th := &optionalSteps{}
			do := func(ops ...sched.Op) {
				for _, op := range ops {
					th.steps = append(th.steps, func(sched.Response) (sched.Op, bool) { return op, true })
				}
			}
			for k, a := range acts {
				v := vars[a.a]
				switch a.kind {
				case 0:
					do(sched.Read(v))
				case 1:
					do(sched.Write(v, 10*t+k))
				case 2: // a write under one lock
					do(sched.Lock(mus[a.b]), sched.Write(v, 10*t+k), sched.Unlock(mus[a.b]))
				case 3: // two locks, in either order
					do(sched.Lock(mus[a.b]), sched.Lock(mus[1-a.b]), sched.Unlock(mus[1-a.b]), sched.Unlock(mus[a.b]))
				case 4:
					do(sched.Send(chans[a.b], 10*t+k))
				case 5: // a receive, and a write of what it got, if anything
					do(sched.Recv(chans[a.b]))
					th.steps = append(th.steps, func(prev sched.Response) (sched.Op, bool) {
						return sched.Write(v, prev.Val), prev.OK
					})
				case 6:
					do(sched.Close(chans[a.b]))
				case 7:
					do(sched.Yield())
				case 8: // unlocking a mutex the thread may not hold
					do(sched.Unlock(mus[a.b]))
				case 9: // locking a mutex for the rest of the run
					do(sched.Lock(mus[a.b]))
				}
			}
			w.Spawn(fmt.Sprintf("t%d", t), th)
		}
		w.Check(func(get func(*sched.Var) int) error {
			if x, y := get(vars[0]), get(vars[1]); x > y {
				return fmt.Errorf("x=%d > y=%d", x, y)
			}
			return nil
		})
	}
	return strings.Join(desc, " | "), body
}

// optionalSteps is a thread that takes its steps in order, skipping
// each step that reports false, and then exits.
type optionalSteps struct {
	steps []func(prev sched.Response) (sched.Op, bool)
	next  int
}

func (th *optionalSteps) Step(prev sched.Response) sched.Op {
	for th.next < len(th.steps) {
		op, ok := th.steps[th.next](prev)
		th.next++
		if ok {
			return op
		}
	}
	return sched.Exit
}

// TestReductionMatchesFullSearch is the reduction's differential
// soundness gate on seeded random programs: the reduced and the full
// exhaustive search must report the same races, deadlocks and
// failures, and no reduced run may end sleep-blocked. Some programs
// must deadlock on a lock-order inversion, send after close and
// unlock a mutex they do not hold.
func TestReductionMatchesFullSearch(t *testing.T) {
	shapes := map[string]int{"waits for mutex": 0, "sent on closed channel": 0, "unlocked mutex": 0}
	for seed := int64(1); seed <= 300; seed++ {
		desc, body := randomProgram(seed)
		r := sched.Explore(full, body)
		compareSearches(t, fmt.Sprintf("seed %d (%s)", seed, desc), body, r)
		v := verdict(r)
		for shape := range shapes {
			if strings.Contains(v, shape) {
				shapes[shape]++
			}
		}
	}
	for shape, n := range shapes {
		if n == 0 {
			t.Errorf("no program's full search reports %q", shape)
		}
	}
}

// TestReductionRunsAreDistinctTraces: the reduction is optimal, so no
// two runs of an exploration are equivalent, on the random programs
// of TestReductionMatchesFullSearch and on a corpus pipeline.
func TestReductionRunsAreDistinctTraces(t *testing.T) {
	check := func(name string, body func(*sched.World)) {
		seen := map[string]int{}
		for run, tr := range sched.ExploreTraces(body) {
			if first, ok := seen[tr]; ok {
				t.Errorf("%s: run %d repeats the trace of run %d", name, run, first)
				return
			}
			seen[tr] = run
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		desc, body := randomProgram(seed)
		check(fmt.Sprintf("seed %d (%s)", seed, desc), body)
	}
	p := corpus.Get("indexer")
	w := p.Workload()
	arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
	if err != nil {
		t.Fatal(err)
	}
	for _, ut := range arts.UnitTests {
		check("indexer/"+ut.Name, ut.Body)
	}
}

// TestReductionMatchesFullSearchOnCorpus runs the same gate on every
// generated corpus unit test whose full search exhausts within 20000
// schedules.
func TestReductionMatchesFullSearchOnCorpus(t *testing.T) {
	compared := 0
	for _, p := range corpus.All() {
		w := p.Workload()
		arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, ut := range arts.UnitTests {
			want := sched.Explore(full, ut.Body)
			if !want.Exhausted {
				continue
			}
			compareSearches(t, p.Name+"/"+ut.Name, ut.Body, want)
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no corpus unit test exhausts the full search")
	}
}

// TestReductionScheduleCounts pins exact run counts: threads on
// disjoint Vars form one trace, and two threads each writing one
// shared Var k times form C(2k, k) traces, none of them reached twice.
func TestReductionScheduleCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared bool
		k      int
		want   int
	}{
		{"disjoint", false, 3, 1},
		{"shared-1", true, 1, 2},
		{"shared-2", true, 2, 6},
		{"shared-3", true, 3, 20},
		{"shared-4", true, 4, 70},
	} {
		res, blocked := sched.ExploreBlocked(reduced, func(w *sched.World) {
			x, y := w.Var("x", 0), w.Var("y", 0)
			if tc.shared {
				y = x
			}
			for _, v := range []*sched.Var{x, y} {
				ops := make([]sched.Op, tc.k)
				for i := range ops {
					ops[i] = sched.Write(v, i)
				}
				w.Spawn(v.Name(), sched.Ops(ops...))
			}
		})
		if res.Schedules != tc.want || blocked != 0 || !res.Exhausted {
			t.Errorf("%s: %d schedules, %d sleep-blocked, exhausted %v; want %d, 0, true",
				tc.name, res.Schedules, blocked, res.Exhausted, tc.want)
		}
	}
}

// TestReductionRunCountsOnCorpus pins the run count of every corpus
// unit test under patty.ValidateOptions(): one run per Mazurkiewicz
// trace, none sleep-blocked, and every search exhaustive. The
// source-set search that wakeup trees replaced ran the same traces
// plus sleep-blocked runs: 744 for indexer (168 blocked), 1506 for
// montecarlo (354) and 6486 for video (1878, so video stopped at the
// 5000-run cap); its other 19 tests had no blocked run and keep their
// counts.
func TestReductionRunCountsOnCorpus(t *testing.T) {
	want := map[string]int{
		"conv2d/Conv.L4.data-parallel":               3,
		"gatherupdate/GatherUpdate.L0.data-parallel": 9,
		"indexer/BuildIndex.L0.pipeline":             576,
		"matmul/MatMul.L4.data-parallel":             3,
		"montecarlo/EstimatePi.L1.pipeline":          1152,
		"raytrace/NormalizeLights.L0.data-parallel":  9,
		"scatter/Scatter.L0.data-parallel":           3,
		"video/Process.L1.pipeline":                  4608,
	}
	tests := 0
	for _, p := range corpus.All() {
		w := p.Workload()
		arts, err := patty.Parallelize(map[string]string{p.Name + ".go": p.Source}, &w)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, ut := range arts.UnitTests {
			key := p.Name + "/" + ut.Name
			runs, ok := want[key]
			if !ok {
				runs = 1 // a single trace
			}
			res, blocked := sched.ExploreBlocked(patty.ValidateOptions(), ut.Body)
			if res.Schedules != runs || blocked != 0 || !res.Exhausted {
				t.Errorf("%s: %d runs, %d sleep-blocked, exhausted %v; want %d, 0, true",
					key, res.Schedules, blocked, res.Exhausted, runs)
			}
			tests++
		}
	}
	if tests != 22 {
		t.Errorf("the corpus has %d unit tests, want 22", tests)
	}
}
