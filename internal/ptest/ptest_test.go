package ptest

import (
	"math"
	"strings"
	"testing"

	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/sched"
	"patty/internal/source"
)

func candidateFor(t *testing.T, src string, fnName string) (*model.Model, pattern.Candidate) {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	rep := pattern.Detect(m, pattern.Options{SkipNested: true})
	for _, c := range rep.Candidates {
		if c.Fn == fnName {
			return m, c
		}
	}
	t.Fatalf("no candidate for %s; rejected: %+v", fnName, rep.Rejected)
	return nil, pattern.Candidate{}
}

func TestDataParallelTestIsClean(t *testing.T) {
	m, c := candidateFor(t, `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`, "F")
	ut, err := Generate(m, c, Options{Threads: 2, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A bound no run reaches: the full search, not the reduced one.
	res := ut.Run(sched.Options{PreemptionBound: math.MaxInt})
	if !res.Exhausted {
		t.Fatalf("expected exhaustive exploration: %+v", res)
	}
	if res.Buggy() {
		t.Fatalf("correctly detected loop must test clean: races=%v failures=%v deadlocks=%v",
			res.Races, res.Failures, res.Deadlocks)
	}
	if res.Schedules < 2 {
		t.Fatalf("trivial schedule count %d", res.Schedules)
	}
}

func TestPlantedRaceDetected(t *testing.T) {
	// Force a wrong candidate: a loop with a genuine scalar carried
	// dependence, hand-labelled as data-parallel (the optimistic
	// failure mode the tests exist for). The explorer must find the
	// race.
	src := `package p
func F(a []int, n int) int {
	last := 0
	for i := 0; i < n; i++ {
		last = a[i]
	}
	return last
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	lm := m.AllLoops()[0]
	// Hand-build the (incorrect) candidate, as if an engineer had
	// annotated //tadl:arch forall on this loop (operation mode 2).
	c := pattern.Candidate{
		Kind:   pattern.DataParallelKind,
		Fn:     "F",
		LoopID: lm.LoopID,
		Stages: []pattern.Stage{{Label: "A", Stmts: lm.Static.Body, Replicable: true}},
	}
	ut, err := Generate(m, c, Options{Threads: 2, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ut.Run(sched.Options{PreemptionBound: math.MaxInt})
	if len(res.Races) == 0 {
		t.Fatalf("planted race not found: %+v", res)
	}
	found := false
	for _, r := range res.Races {
		if strings.Contains(r.Var, "last") {
			found = true
		}
	}
	if !found {
		t.Fatalf("race should be on 'last': %+v", res.Races)
	}
}

func TestPipelineTestCleanWithReplication(t *testing.T) {
	src := `package p
type Stream struct{ out []int }
func (s *Stream) Add(v int) { s.out = append(s.out, v) }
func heavy(x int) int {
	v := x
	for k := 0; k < 100; k++ {
		v += k
	}
	return v
}
func Process(in []int, s *Stream) {
	for _, x := range in {
		h := heavy(x)
		s.Add(h)
	}
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	err = m.EnrichDynamic(model.Workload{
		Entry: "Process",
		Args: func(im *interp.Machine) []interp.Value {
			in := im.NewSlice(int64(1), int64(2), int64(3), int64(4), int64(5), int64(6))
			s := im.NewStructValue("Stream", im.NewSlice())
			return []interp.Value{in, s}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := pattern.Detect(m, pattern.Options{SkipNested: true})
	var c *pattern.Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Fn == "Process" && rep.Candidates[i].Kind == pattern.PipelineKind {
			c = &rep.Candidates[i]
		}
	}
	if c == nil {
		t.Fatalf("no pipeline candidate: %+v / %+v", rep.Candidates, rep.Rejected)
	}
	ut, err := Generate(m, *c, Options{Iters: 3, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ut.Run(sched.Options{PreemptionBound: 2, MaxSchedules: 4000})
	if res.Buggy() {
		t.Fatalf("correct pipeline must test clean: races=%v failures=%v deadlocks=%v",
			res.Races, res.Failures, res.Deadlocks)
	}
	if res.Schedules == 0 {
		t.Fatal("no schedules explored")
	}
}

func TestPipelinePlantedUnsafeReplicationFound(t *testing.T) {
	// A stage with a carried dependence (the ordered Add) is marked
	// replicable — the fault injection of experiment E10. The shared
	// write must surface as a race.
	src := `package p
type Stream struct{ out []int }
func (s *Stream) Add(v int) { s.out = append(s.out, v) }
func Process(in []int, s *Stream) {
	for _, x := range in {
		h := x * 2
		s.Add(h)
	}
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	rep := pattern.Detect(m, pattern.Options{SkipNested: true})
	var c *pattern.Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Kind == pattern.PipelineKind {
			c = &rep.Candidates[i]
		}
	}
	if c == nil {
		t.Fatalf("no pipeline candidate: %+v / %+v", rep.Candidates, rep.Rejected)
	}
	// Fault injection: replicate the carried stage.
	last := len(c.Stages) - 1
	c.Stages[last].Replicable = true
	c.Stages[last].ReplicationSuggested = true
	ut, err := Generate(m, *c, Options{Iters: 2, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ut.Run(sched.Options{PreemptionBound: math.MaxInt, MaxSchedules: 20000, StopAtFirstBug: true})
	if len(res.Races) == 0 {
		t.Fatalf("unsafe replication must race: %+v", res)
	}
}

func TestGenerateAll(t *testing.T) {
	src := `package p
func A(a, b []int) {
	for i := 0; i < len(a); i++ {
		b[i] = a[i]
	}
}
func B(a []int) int {
	s := 0
	for i := 0; i < len(a); i++ {
		s += a[i]
	}
	return s
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	rep := pattern.Detect(m, pattern.Options{})
	uts, err := GenerateAll(m, rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(uts) != len(rep.Candidates) {
		t.Fatalf("tests = %d, candidates = %d", len(uts), len(rep.Candidates))
	}
	for _, ut := range uts {
		res := ut.Run(sched.Options{PreemptionBound: 2, MaxSchedules: 2000})
		if res.Buggy() {
			t.Errorf("%s: unexpected bugs %+v", ut.Name, res)
		}
		if ut.Description == "" || ut.Name == "" {
			t.Error("missing metadata")
		}
	}
}

func TestSearchInputsRanksByCoverage(t *testing.T) {
	src := `package p
func F(xs []int) int {
	s := 0
	for i := 0; i < len(xs); i++ {
		if xs[i] > 0 {
			s += xs[i]
		} else {
			s -= xs[i]
		}
	}
	return s
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	mkWorkload := func(vals ...int64) model.Workload {
		return model.Workload{
			Entry: "F",
			Args: func(im *interp.Machine) []interp.Value {
				elems := make([]interp.Value, len(vals))
				for i, v := range vals {
					elems[i] = v
				}
				return []interp.Value{im.NewSlice(elems...)}
			},
		}
	}
	results, err := SearchInputs(prog, "F", []model.Workload{
		mkWorkload(),         // empty: covers almost nothing
		mkWorkload(1, 2, 3),  // positive only: one branch
		mkWorkload(1, -2, 3), // both branches: best
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Index != 2 {
		t.Fatalf("mixed-sign input must rank first: %+v", results)
	}
	if results[0].Fraction <= results[len(results)-1].Fraction {
		t.Fatalf("ranking broken: %+v", results)
	}
	if results[len(results)-1].Index != 0 {
		t.Fatalf("empty input must rank last: %+v", results)
	}
}

func TestSearchInputsUnknownTarget(t *testing.T) {
	prog, _ := source.ParseFile("t.go", "package p\nfunc F() {}")
	if _, err := SearchInputs(prog, "Nope", nil); err == nil {
		t.Fatal("expected error")
	}
}
