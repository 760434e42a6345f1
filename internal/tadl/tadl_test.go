package tadl

import (
	"go/ast"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"patty/internal/source"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"A",
		"A+",
		"A => B",
		"A => B => C",
		"(A || B)",
		"(A || B || C+) => D => E",
		"forall(A)",
		"master(A || B)",
		"(A || B)+ => C",
		"A+ => (B || C) => D",
	}
	for _, expr := range cases {
		n, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got := n.String()
		n2, err := Parse(got)
		if err != nil {
			t.Fatalf("reparse(%q): %v", got, err)
		}
		if n2.String() != got {
			t.Fatalf("round trip %q -> %q -> %q", expr, got, n2.String())
		}
	}
}

func TestParsePaperExample(t *testing.T) {
	n, err := Parse("(A || B || C+) => D => E")
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := n.(*Seq)
	if !ok || len(seq.Stages) != 3 {
		t.Fatalf("want 3-stage Seq, got %#v", n)
	}
	par, ok := seq.Stages[0].(*Par)
	if !ok || len(par.Branches) != 3 {
		t.Fatalf("first stage should be a 3-way Par, got %#v", seq.Stages[0])
	}
	c := par.Branches[2].(*Label)
	if c.Name != "C" || !c.Replicable {
		t.Fatalf("C should be replicable, got %#v", c)
	}
	if labels := Labels(n); strings.Join(labels, "") != "ABCDE" {
		t.Fatalf("Labels = %v", labels)
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{
		"", "=>", "A =>", "A ||", "(A", "A)", "A | B", "A = B",
		"forall", "forall(", "forall(A", "A @ B", "(A => B)+",
	} {
		if _, err := Parse(expr); err == nil {
			t.Errorf("Parse(%q) should fail", expr)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

const videoSrc = `package p

type Image struct{ px int }

func crop(i Image) Image  { return Image{i.px * 2} }
func histo(i Image) Image { return Image{i.px + 1} }
func oil(i Image) Image   { return Image{i.px - 1} }

func Process(in []Image) []Image {
	out := make([]Image, 0)
	for _, img := range in {
		c := crop(img)
		h := histo(img)
		o := oil(img)
		r := Image{c.px + h.px + o.px}
		out = append(out, r)
	}
	return out
}
`

func TestAnnotateAndExtract(t *testing.T) {
	prog, err := source.ParseFile("video.go", videoSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("Process")
	loop := fn.Loops()[0]
	arch, _ := Parse("(A || B || C) => D => E")
	body := loopBodyStmts(t, fn, loop)
	ann := Annotation{
		Kind:   "pipeline",
		Arch:   arch,
		Fn:     "Process",
		LoopID: fn.StmtID(loop),
		StageOf: map[int]string{
			body[0]: "A", body[1]: "B", body[2]: "C", body[3]: "D", body[4]: "E",
		},
	}
	annotated, err := Annotate(prog, videoSrc, []Annotation{ann})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(annotated, "//tadl:arch pipeline (A || B || C) => D => E") {
		t.Fatalf("missing arch directive:\n%s", annotated)
	}
	if strings.Count(annotated, "//tadl:stage ") != 5 {
		t.Fatalf("expected 5 stage directives:\n%s", annotated)
	}

	// The annotated source must still parse and must extract to the
	// same annotation.
	prog2, err := source.ParseFile("video.go", annotated)
	if err != nil {
		t.Fatalf("annotated source does not parse: %v", err)
	}
	anns, err := Extract(prog2)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 1 {
		t.Fatalf("extracted %d annotations", len(anns))
	}
	got := anns[0]
	if got.Kind != "pipeline" || got.Fn != "Process" {
		t.Fatalf("got %+v", got)
	}
	if got.Arch.String() != "(A || B || C) => D => E" {
		t.Fatalf("arch = %s", got.Arch.String())
	}
	if len(got.StageOf) != 5 {
		t.Fatalf("StageOf = %v", got.StageOf)
	}
	// Labels must be in body order A..E.
	fn2 := prog2.Func("Process")
	loop2 := fn2.Loops()[0]
	body2 := loopBodyStmts(t, fn2, loop2)
	for i, want := range []string{"A", "B", "C", "D", "E"} {
		if got.StageOf[body2[i]] != want {
			t.Fatalf("stage %d = %q, want %q", i, got.StageOf[body2[i]], want)
		}
	}
}

func loopBodyStmts(t *testing.T, fn *source.Function, loop ast.Stmt) []int {
	t.Helper()
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	default:
		t.Fatalf("not a loop: %T", loop)
	}
	ids := make([]int, 0, len(body.List))
	for _, s := range body.List {
		ids = append(ids, fn.StmtID(s))
	}
	if len(ids) == 0 {
		t.Fatal("no body statements")
	}
	return ids
}

func TestExtractErrors(t *testing.T) {
	bad := []string{
		"package p\n//tadl:arch pipeline A =>\nfunc F() { for i := 0; i < 1; i++ { _ = i } }",
		"package p\nfunc F() {\n//tadl:arch pipeline A\n_ = 1\n}",
	}
	for _, src := range bad {
		prog, err := source.ParseFile("t.go", src)
		if err != nil {
			continue
		}
		if _, err := Extract(prog); err == nil {
			t.Errorf("Extract should fail for:\n%s", src)
		}
	}
}

func TestExtractForall(t *testing.T) {
	src := `package p
func F(a, b []int) {
	//tadl:arch forall forall(A)
	for i := 0; i < len(a); i++ {
		//tadl:stage A
		b[i] = a[i] * 2
	}
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	anns, err := Extract(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 1 || anns[0].Kind != "forall" {
		t.Fatalf("anns = %+v", anns)
	}
}

func TestAnnotationString(t *testing.T) {
	arch, _ := Parse("A => B")
	a := Annotation{Kind: "pipeline", Arch: arch}
	if a.String() != "pipeline A => B" {
		t.Fatalf("String = %q", a.String())
	}
}

// TestStages pins the one flattening of an architecture into runtime
// pipeline stages, a replicated group (A || B)+ included: every member
// of a "+" group is replicable, whatever its own label says.
func TestStages(t *testing.T) {
	for _, tc := range []struct {
		arch string
		want []Stage
	}{
		{"A => B+ => C", []Stage{{[]string{"A"}, false}, {[]string{"B"}, true}, {[]string{"C"}, false}}},
		{"(A || B || C+) => D => E", []Stage{{[]string{"A", "B", "C"}, true}, {[]string{"D"}, false}, {[]string{"E"}, false}}},
		{"(A || B)+ => C", []Stage{{[]string{"A", "B"}, true}, {[]string{"C"}, false}}},
		{"(A || B) => C+", []Stage{{[]string{"A", "B"}, false}, {[]string{"C"}, true}}},
		{"A => (B => C+)", []Stage{{[]string{"A"}, false}, {[]string{"B"}, false}, {[]string{"C"}, true}}},
		{"forall(A+)", []Stage{{[]string{"A"}, true}}},
	} {
		arch, err := Parse(tc.arch)
		if err != nil {
			t.Fatalf("%s: %v", tc.arch, err)
		}
		got, err := Stages(arch)
		if err != nil {
			t.Fatalf("%s: %v", tc.arch, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Stages(%s) = %+v, want %+v", tc.arch, got, tc.want)
		}
	}
	if got := (Stage{Labels: []string{"A", "B"}}).Name(); got != "A_B" {
		t.Errorf("group name %q, want A_B", got)
	}
	nested := &Seq{Stages: []Node{&Par{Branches: []Node{&Label{Name: "A"}, &Seq{Stages: []Node{&Label{Name: "B"}}}}}}}
	if _, err := Stages(nested); err == nil {
		t.Error("a group with a chain branch flattened without error")
	}
}
