package pattern

import (
	"strings"
	"testing"

	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/source"
)

func detect(t *testing.T, src string, opt Options) *Report {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return Detect(model.Build(prog), opt)
}

func detectDynamic(t *testing.T, src string, w model.Workload, opt Options) *Report {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	if err := m.EnrichDynamic(w); err != nil {
		t.Fatal(err)
	}
	return Detect(m, opt)
}

func TestDataParallelLoop(t *testing.T) {
	rep := detect(t, `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`, Options{})
	if len(rep.Candidates) != 1 {
		t.Fatalf("candidates = %+v", rep.Candidates)
	}
	c := rep.Candidates[0]
	if c.Kind != DataParallelKind {
		t.Fatalf("kind = %v", c.Kind)
	}
	if c.Arch.String() != "forall(A+)" {
		t.Fatalf("arch = %s", c.Arch.String())
	}
}

func TestReductionStaysDataParallel(t *testing.T) {
	rep := detect(t, `package p
func Sum(a []int) int {
	s := 0
	for i := 0; i < len(a); i++ {
		s += a[i]
	}
	return s
}`, Options{})
	if len(rep.Candidates) != 1 || rep.Candidates[0].Kind != DataParallelKind {
		t.Fatalf("reduction loop should be data-parallel: %+v", rep)
	}
	if len(rep.Candidates[0].Reductions) != 1 {
		t.Fatalf("reductions = %+v", rep.Candidates[0].Reductions)
	}
}

func TestIrregularBodyIsMasterWorker(t *testing.T) {
	rep := detect(t, `package p
func F(a, b []int) {
	for i := 0; i < len(a); i++ {
		if a[i] > 0 {
			b[i] = a[i] * a[i]
		} else {
			b[i] = -a[i]
		}
	}
}`, Options{})
	if len(rep.Candidates) != 1 || rep.Candidates[0].Kind != MasterWorkerKind {
		t.Fatalf("irregular loop should be master/worker: %+v", rep.Candidates)
	}
	if rep.Candidates[0].Arch.String() != "master(A+)" {
		t.Fatalf("arch = %s", rep.Candidates[0].Arch.String())
	}
}

func TestPLCDRejection(t *testing.T) {
	rep := detect(t, `package p
func Find(a []int, x int) int {
	for i := 0; i < len(a); i++ {
		if a[i] == x {
			return i
		}
	}
	return -1
}`, Options{})
	if len(rep.Candidates) != 0 {
		t.Fatalf("early-exit loop must be rejected: %+v", rep.Candidates)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0].Reason, "PLCD") {
		t.Fatalf("rejections = %+v", rep.Rejected)
	}
}

func TestFullySequentialRejected(t *testing.T) {
	rep := detect(t, `package p
func Scan(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1] + a[i]
	}
}`, Options{})
	if len(rep.Candidates) != 0 {
		t.Fatalf("prefix-sum recurrence must not parallelize: %+v", rep.Candidates)
	}
	if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0].Reason, "PLDD") {
		t.Fatalf("rejections = %+v", rep.Rejected)
	}
}

// A local read only as a map-literal key is read like any other: the
// loop that carries k into the next iteration through a key is as
// sequential as the one that carries it through k + a[i].
func TestPLDDReadsMapLiteralKeys(t *testing.T) {
	for name, src := range map[string]string{
		"sum": `package p
func F(a, out []int) {
	k := 0
	for i := 0; i < len(a); i++ {
		out[i] = k + a[i]
		k = a[i]
	}
}`,
		"map-key": `package p
func F(a []int, out []map[int]int) {
	k := 0
	for i := 0; i < len(a); i++ {
		out[i] = map[int]int{k: a[i]}
		k = a[i]
	}
}`,
	} {
		rep := detect(t, src, Options{})
		if len(rep.Candidates) != 0 {
			t.Errorf("%s: loop carrying k must not parallelize: %+v", name, rep.Candidates)
		}
		if len(rep.Rejected) != 1 || !strings.Contains(rep.Rejected[0].Reason, "PLDD: carried dependences span the whole body") {
			t.Errorf("%s: rejections = %+v", name, rep.Rejected)
		}
	}
}

const videoSrc = `package p
type Image struct{ px int }
type Stream struct{ imgs []Image }
func (s *Stream) Add(i Image) { s.imgs = append(s.imgs, i) }
func crop(i Image) Image {
	v := 0
	for k := 0; k < 40; k++ {
		v += k * i.px
	}
	return Image{v}
}
func histo(i Image) Image {
	v := 0
	for k := 0; k < 40; k++ {
		v += k + i.px
	}
	return Image{v}
}
func oil(i Image) Image {
	v := i.px
	for k := 0; k < 400; k++ {
		v += k % 7
	}
	return Image{v}
}
func conv(a, b, c Image) Image { return Image{a.px + b.px + c.px} }
func Process(in []Image, out *Stream) {
	for _, img := range in {
		c := crop(img)
		h := histo(img)
		o := oil(img)
		r := conv(c, h, o)
		out.Add(r)
	}
}
`

func videoWorkload() model.Workload {
	return model.Workload{
		Entry: "Process",
		Args: func(m *interp.Machine) []interp.Value {
			imgs := make([]interp.Value, 12)
			for i := range imgs {
				imgs[i] = m.NewStructValue("Image", int64(i+1))
			}
			in := m.NewSlice(imgs...)
			out := m.NewStructValue("Stream", m.NewSlice())
			return []interp.Value{in, out}
		},
	}
}

func TestVideoPipelineStatic(t *testing.T) {
	rep := detect(t, videoSrc, Options{SkipNested: true})
	var found *Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Fn == "Process" {
			found = &rep.Candidates[i]
		}
	}
	if found == nil {
		t.Fatalf("Process loop not detected: %+v / rejected %+v", rep.Candidates, rep.Rejected)
	}
	if found.Kind != PipelineKind {
		t.Fatalf("kind = %v", found.Kind)
	}
	// Stages: (A||B||C) group for crop/histo/oil, then conv, then Add.
	if len(found.Stages) != 5 {
		t.Fatalf("stages = %+v", found.Stages)
	}
	if !found.Stages[0].Replicable || found.Stages[4].Replicable {
		t.Fatalf("replicability wrong: %+v", found.Stages)
	}
	s := found.Arch.String()
	if !strings.HasPrefix(s, "(A || B || C") {
		t.Fatalf("arch = %s, want the paper's (A || B || C...) => D => E shape", s)
	}
	if !strings.Contains(s, "=> D => E") && !strings.Contains(s, "=> D+ => E") {
		t.Fatalf("arch = %s", s)
	}
}

func TestVideoPipelineDynamicMarksHotStage(t *testing.T) {
	rep := detectDynamic(t, videoSrc, videoWorkload(), Options{SkipNested: true})
	var found *Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Fn == "Process" {
			found = &rep.Candidates[i]
		}
	}
	if found == nil {
		t.Fatal("Process loop not detected")
	}
	// oil() dominates; stage C must be the replication suggestion and
	// the arch must match the paper's annotation shape with C+.
	if !strings.Contains(found.Arch.String(), "C+") {
		t.Fatalf("arch = %s, want C marked replicable", found.Arch.String())
	}
	if found.Stages[2].Share < 0.5 {
		t.Fatalf("oil stage share = %f, want dominant", found.Stages[2].Share)
	}
	if found.HotShare == 0 {
		t.Fatal("hot share missing")
	}
}

func TestDynamicClearsFalseStaticDependence(t *testing.T) {
	// Statically, b[idx(i)] is an unanalyzable subscript → carried.
	// Dynamically idx(i)=i, so iterations are independent: the
	// optimistic combination must yield a parallel candidate.
	src := `package p
func idx(i int) int { return i }
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[idx(i)] = a[i] * 2
	}
}`
	staticRep := detect(t, src, Options{})
	if len(staticRep.Candidates) != 0 {
		t.Fatalf("static analysis should be blocked by the subscript: %+v", staticRep.Candidates)
	}
	rep := detectDynamic(t, src, model.Workload{
		Entry: "F",
		Args: func(m *interp.Machine) []interp.Value {
			zeros := func(n int) *interp.Slice {
				vals := make([]interp.Value, n)
				for i := range vals {
					vals[i] = int64(i)
				}
				return m.NewSlice(vals...)
			}
			return []interp.Value{zeros(8), zeros(8), int64(8)}
		},
	}, Options{})
	if len(rep.Candidates) != 1 {
		t.Fatalf("optimistic detection should clear the dependence: %+v / %+v", rep.Candidates, rep.Rejected)
	}
}

func TestStaticOnlyOptionKeepsConservative(t *testing.T) {
	src := `package p
func idx(i int) int { return i }
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[idx(i)] = a[i] * 2
	}
}`
	rep := detectDynamic(t, src, model.Workload{
		Entry: "F",
		Args: func(m *interp.Machine) []interp.Value {
			zeros := func(n int) *interp.Slice {
				vals := make([]interp.Value, n)
				for i := range vals {
					vals[i] = int64(i)
				}
				return m.NewSlice(vals...)
			}
			return []interp.Value{zeros(8), zeros(8), int64(8)}
		},
	}, Options{StaticOnly: true})
	if len(rep.Candidates) != 0 {
		t.Fatalf("StaticOnly must keep the conservative verdict: %+v", rep.Candidates)
	}
}

func TestNestedLoopsSkipped(t *testing.T) {
	src := `package p
func F(a [][]int) {
	for i := 0; i < len(a); i++ {
		for j := 0; j < len(a[i]); j++ {
			a[i][j] = a[i][j] * 2
		}
	}
}`
	rep := detect(t, src, Options{SkipNested: true})
	total := len(rep.Candidates) + len(rep.Rejected)
	if total != 1 {
		t.Fatalf("only the outer loop should be considered, got %d verdicts", total)
	}
}

func TestAnnotationIsInsertable(t *testing.T) {
	src := `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`
	prog, _ := source.ParseFile("t.go", src)
	rep := Detect(model.Build(prog), Options{})
	if len(rep.Candidates) != 1 {
		t.Fatal("expected one candidate")
	}
	// The annotation must survive a tadl.Annotate round trip (tested
	// in depth in package tadl; here we check the binding is valid).
	ann := rep.Candidates[0].Annotation
	if ann.Fn != "F" || len(ann.StageOf) != 1 {
		t.Fatalf("annotation = %+v", ann)
	}
}

func TestCandidateRankingByScore(t *testing.T) {
	src := `package p
func F(a, b []int, n int) int {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
	s := 0
	for i := 0; i < n*50; i++ {
		s += i % 7
	}
	return s
}`
	rep := detectDynamic(t, src, model.Workload{
		Entry: "F",
		Args: func(m *interp.Machine) []interp.Value {
			zeros := func(n int) *interp.Slice {
				vals := make([]interp.Value, n)
				for i := range vals {
					vals[i] = int64(i)
				}
				return m.NewSlice(vals...)
			}
			return []interp.Value{zeros(8), zeros(8), int64(8)}
		},
	}, Options{})
	if len(rep.Candidates) != 2 {
		t.Fatalf("want 2 candidates, got %+v (rejected %+v)", rep.Candidates, rep.Rejected)
	}
	if rep.Candidates[0].Score < rep.Candidates[1].Score {
		t.Fatal("candidates not ranked by score")
	}
	// The hot reduction loop must rank first.
	if rep.Candidates[0].HotShare < rep.Candidates[1].HotShare {
		t.Fatal("hot loop should rank first")
	}
}

func TestPipelineParamSuggestions(t *testing.T) {
	rep := detectDynamic(t, videoSrc, videoWorkload(), Options{SkipNested: true})
	var found *Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Fn == "Process" {
			found = &rep.Candidates[i]
		}
	}
	if found == nil {
		t.Fatal("no pipeline candidate")
	}
	names := map[string]int{}
	for _, p := range found.Params {
		names[p.Name] = p.Value
	}
	if names["stage.2.replication"] != 2 {
		t.Fatalf("hot stage replication suggestion missing: %v", names)
	}
	if _, ok := names["sequentialexecution"]; !ok {
		t.Fatalf("missing sequentialexecution param: %v", names)
	}
	if _, ok := names["fuse.0"]; !ok {
		t.Fatalf("missing fusion params: %v", names)
	}
}

func TestKindString(t *testing.T) {
	if PipelineKind.String() != "pipeline" || DataParallelKind.String() != "data-parallel" ||
		MasterWorkerKind.String() != "master-worker" || Kind(9).String() != "kind(9)" {
		t.Fatal("Kind names")
	}
}

func TestMinIterationsRejectsShortStreams(t *testing.T) {
	src := `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`
	rep := detectDynamic(t, src, model.Workload{
		Entry: "F",
		Args: func(m *interp.Machine) []interp.Value {
			return []interp.Value{m.NewSlice(int64(1), int64(2)), m.NewSlice(int64(0), int64(0)), int64(2)}
		},
	}, Options{MinIterations: 4})
	if len(rep.Candidates) != 0 {
		t.Fatalf("2-iteration loop must be rejected with MinIterations=4: %+v", rep.Candidates)
	}
}
