package profile

import (
	"go/ast"
	"reflect"
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

func profileLoop(t *testing.T, src, fnName string, mk func(m *interp.Machine) []interp.Value) (*LoopProfile, *source.Function, ast.Stmt) {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(prog)
	fn := prog.Func(fnName)
	if fn == nil {
		t.Fatalf("no function %s", fnName)
	}
	loop := fn.Loops()[0]
	args := mk(m)
	_, prof, err := m.Run(fnName, args, interp.Options{
		TargetLoop: interp.Ref{Fn: fnName, Stmt: fn.StmtID(loop)},
	})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := AnalyzeLoop(prof, fn, loop)
	if err != nil {
		t.Fatal(err)
	}
	return lp, fn, loop
}

func TestIndependentLoopNoCarried(t *testing.T) {
	lp, _, _ := profileLoop(t, `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`, "F", func(m *interp.Machine) []interp.Value {
		a := m.NewSlice(int64(1), int64(2), int64(3), int64(4))
		b := m.NewSlice(int64(0), int64(0), int64(0), int64(0))
		return []interp.Value{a, b, int64(4)}
	})
	if len(lp.Carried) != 0 {
		t.Fatalf("independent loop observed carried deps: %+v", lp.Carried)
	}
	if lp.Iters != 4 {
		t.Fatalf("Iters = %d", lp.Iters)
	}
}

func TestRecurrenceObservedFlow(t *testing.T) {
	lp, fn, loop := profileLoop(t, `package p
func F(a []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + 1
	}
}`, "F", func(m *interp.Machine) []interp.Value {
		a := m.NewSlice(int64(0), int64(0), int64(0), int64(0), int64(0))
		return []interp.Value{a, int64(5)}
	})
	if len(lp.Carried) == 0 {
		t.Fatal("recurrence must be observed")
	}
	found := false
	for _, c := range lp.Carried {
		if c.Kind == Flow && c.MinDistance == 1 {
			found = true
			body := loop.(*ast.ForStmt).Body.List[0]
			if c.FromStmt != fn.StmtID(body) || c.ToStmt != fn.StmtID(body) {
				t.Fatalf("dep should be self-edge of the body stmt: %+v", c)
			}
		}
	}
	if !found {
		t.Fatalf("no distance-1 flow dep: %+v", lp.Carried)
	}
}

func TestAccumulatorObservedFlowBetweenStmts(t *testing.T) {
	lp, fn, loop := profileLoop(t, `package p
func F(a []int, n int) int {
	s := 0
	t := 0
	for i := 0; i < n; i++ {
		t = s * 2
		s = s + a[i]
	}
	return s + t
}`, "F", func(m *interp.Machine) []interp.Value {
		a := m.NewSlice(int64(1), int64(2), int64(3))
		return []interp.Value{a, int64(3)}
	})
	body := loop.(*ast.ForStmt).Body.List
	id0, id1 := fn.StmtID(body[0]), fn.StmtID(body[1])
	// s written by stmt1 in iter k, read by stmt0 in iter k+1: flow.
	flow := false
	for _, c := range lp.Carried {
		if c.Kind == Flow && c.FromStmt == id1 && c.ToStmt == id0 {
			flow = true
		}
	}
	if !flow {
		t.Fatalf("missing cross-statement flow dep: %+v", lp.Carried)
	}
}

func TestAntiAndOutputDeps(t *testing.T) {
	lp, _, _ := profileLoop(t, `package p
func F(n int) int {
	last := 0
	for i := 0; i < n; i++ {
		last = i
	}
	return last
}`, "F", func(m *interp.Machine) []interp.Value {
		return []interp.Value{int64(4)}
	})
	output := false
	for _, c := range lp.Carried {
		if c.Kind == Output {
			output = true
		}
	}
	if !output {
		t.Fatalf("repeated scalar write must be an output dep: %+v", lp.Carried)
	}
}

func TestInductionVariableExcluded(t *testing.T) {
	lp, _, _ := profileLoop(t, `package p
func F(a []int, n int) {
	for i := 0; i < n; i++ {
		a[i] = i
	}
}`, "F", func(m *interp.Machine) []interp.Value {
		a := m.NewSlice(int64(0), int64(0), int64(0))
		return []interp.Value{a, int64(3)}
	})
	if len(lp.Carried) != 0 {
		t.Fatalf("induction variable must not produce carried deps: %+v", lp.Carried)
	}
}

func TestSharesSumToOne(t *testing.T) {
	lp, _, _ := profileLoop(t, `package p
func heavy(x int) int {
	s := 0
	for j := 0; j < 200; j++ {
		s += j * x
	}
	return s
}
func F(a []int, n int) int {
	out := 0
	for i := 0; i < n; i++ {
		h := heavy(a[i])
		out += h
	}
	return out
}`, "F", func(m *interp.Machine) []interp.Value {
		a := m.NewSlice(int64(1), int64(2), int64(3), int64(4))
		return []interp.Value{a, int64(4)}
	})
	sum := 0.0
	for _, s := range lp.Share {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f", sum)
	}
	// The heavy statement must dominate.
	maxShare := 0.0
	for _, s := range lp.Share {
		if s > maxShare {
			maxShare = s
		}
	}
	if maxShare < 0.9 {
		t.Fatalf("heavy stage share = %f, want > 0.9", maxShare)
	}
}

func TestCarriedBetweenAndHasCarried(t *testing.T) {
	lp := &LoopProfile{Carried: []CarriedPair{{FromStmt: 3, ToStmt: 5, Kind: Flow}}}
	if !lp.CarriedBetween(3, 5) || !lp.CarriedBetween(5, 3) {
		t.Fatal("CarriedBetween broken")
	}
	if lp.CarriedBetween(3, 4) {
		t.Fatal("false positive")
	}
	if !lp.HasCarried(3) || !lp.HasCarried(5) || lp.HasCarried(4) {
		t.Fatal("HasCarried broken")
	}
}

func TestHotLoops(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	for i := 0; i < n*20; i++ {
		s += i * i
	}
	return s
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.NewMachine(prog)
	_, prof, err := m.Run("F", []interp.Value{int64(50)}, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := HotLoops(prof, prog)
	if len(hot) != 2 {
		t.Fatalf("got %d hot loops", len(hot))
	}
	if hot[0].Incl < hot[1].Incl {
		t.Fatal("hot loops not sorted by time")
	}
	if hot[0].Share <= hot[1].Share {
		t.Fatal("share ordering wrong")
	}
	fn := prog.Func("F")
	if hot[0].Ref.Stmt != fn.StmtID(fn.Loops()[1]) {
		t.Fatal("the 20x loop must rank first")
	}
}

func TestDepKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" || DepKind(9).String() != "dep(9)" {
		t.Fatal("DepKind names")
	}
}

// TestPairerRules pins the last-writer/last-reader rules on a
// hand-written stream: flow, anti and output edges across iterations,
// nothing within one iteration, no anti edge from a loop-control read,
// the reset on a loop-control store, and per-pair minimum distance,
// count and sorted output.
func TestPairerRules(t *testing.T) {
	ld := func(addr uint64, iter, stmt int) interp.MemEvent {
		return interp.MemEvent{Addr: addr, Kind: interp.MemLoad, Iter: iter, TopStmt: stmt}
	}
	st := func(addr uint64, iter, stmt int) interp.MemEvent {
		return interp.MemEvent{Addr: addr, Kind: interp.MemStore, Iter: iter, TopStmt: stmt}
	}
	stream := []interp.MemEvent{
		st(1, 0, 5), ld(1, 1, 6), st(1, 1, 5), // flow 5→6, output 5→5
		ld(2, 0, 7), st(2, 2, 8), // anti 7→8 at distance 2
		ld(3, 0, -1), st(3, 1, 9), // a control read seeds no anti edge
		st(4, 0, 10), st(4, 1, -1), ld(4, 2, 11), // a control store resets the address
		st(5, 0, 12), ld(5, 0, 12), // same iteration: no edge
		st(6, 0, 5), ld(6, 3, 6), // flow 5→6 again, at distance 3
	}
	p := NewPairer()
	for _, ev := range stream {
		p.Access(ev)
	}
	p.Leave(4)
	got := p.carried()
	want := []CarriedPair{
		{FromStmt: 5, ToStmt: 5, Kind: Output, MinDistance: 1, Count: 1},
		{FromStmt: 5, ToStmt: 6, Kind: Flow, MinDistance: 1, Count: 2},
		{FromStmt: 7, ToStmt: 8, Kind: Anti, MinDistance: 2, Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("carried = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("carried[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p.iters != 4 {
		t.Fatalf("iters = %d, want 4", p.iters)
	}
}

// TestPairerStreamsLikeReplay checks that pairing a loop's accesses as
// a traced run streams them gives the summary AnalyzeLoop derives by
// replaying the loop's recorded trace.
func TestPairerStreamsLikeReplay(t *testing.T) {
	src := `package p
func F(a []int, n int) int {
	s := 0
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + s
		s += a[i]
	}
	return s
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("F")
	loop := fn.Loops()[0]
	ref := interp.Ref{Fn: "F", Stmt: fn.StmtID(loop)}
	args := func(m *interp.Machine) []interp.Value {
		return []interp.Value{m.NewSlice(int64(1), int64(2), int64(3), int64(4), int64(5)), int64(5)}
	}

	m := interp.NewMachine(prog)
	_, prof, err := m.Run("F", args(m), interp.Options{TargetLoop: ref})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := AnalyzeLoop(prof, fn, loop)
	if err != nil {
		t.Fatal(err)
	}

	m = interp.NewMachine(prog)
	p := NewPairer()
	m.TraceLoops(map[interp.Ref]interp.TraceSink{ref: p})
	_, prof, err = m.Run("F", args(m), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := p.Loop(prof, fn, loop)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, replayed) {
		t.Fatalf("streamed %+v\nreplayed %+v", streamed, replayed)
	}
	if len(streamed.Carried) == 0 || streamed.Iters != 4 {
		t.Fatalf("expected carried dependences over 4 iterations, got %+v", streamed)
	}
}
