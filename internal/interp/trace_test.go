package interp

import (
	"go/ast"
	"reflect"
	"testing"

	"patty/internal/source"
)

// recSink records everything a traced loop delivers.
type recSink struct {
	mem    []MemEvent
	leaves []int
}

func (s *recSink) Access(ev MemEvent) { s.mem = append(s.mem, ev) }
func (s *recSink) Leave(iters int)    { s.leaves = append(s.leaves, iters) }

// loopRefs lists every loop of prog, in function order.
func loopRefs(prog *source.Program) []Ref {
	var refs []Ref
	for _, fn := range prog.Functions() {
		for _, l := range fn.Loops() {
			refs = append(refs, Ref{Fn: fn.Name, Stmt: fn.StmtID(l)})
		}
	}
	return refs
}

// traceAll runs entry on m with every loop of the program traced into
// a fresh recording sink.
func traceAll(t *testing.T, m *Machine, entry string, args []Value) (map[Ref]*recSink, error) {
	t.Helper()
	sinks := make(map[Ref]TraceSink)
	recs := make(map[Ref]*recSink)
	for _, ref := range loopRefs(m.prog) {
		r := &recSink{}
		sinks[ref] = r
		recs[ref] = r
	}
	m.TraceLoops(sinks)
	defer m.TraceLoops(nil)
	_, _, err := m.Run(entry, args, Options{})
	if len(m.active) != 0 {
		t.Fatalf("%d loop activations left open after the run", len(m.active))
	}
	return recs, err
}

// checkTrace runs entry once with all loops traced and once per loop
// with that loop as Options.TargetLoop, each on a fresh machine, and
// requires each loop's stream to equal its single-target Mem and its
// last Leave to equal TargetIters. It returns the all-loops sinks.
func checkTrace(t *testing.T, eng Engine, prog *source.Program, entry string, args func(*Machine) []Value) map[Ref]*recSink {
	t.Helper()
	m := NewMachine(prog)
	m.SetEngine(eng)
	recs, err := traceAll(t, m, entry, args(m))
	if err != nil {
		t.Fatal(err)
	}
	for ref, rec := range recs {
		one := NewMachine(prog)
		one.SetEngine(eng)
		_, prof, err := one.Run(entry, args(one), Options{TargetLoop: ref})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.mem, prof.Mem) {
			t.Fatalf("%v: all-loops stream (%d events) differs from the single-target trace (%d events)", ref, len(rec.mem), len(prof.Mem))
		}
		last := 0
		if n := len(rec.leaves); n > 0 {
			last = rec.leaves[n-1]
		}
		if last != prof.TargetIters {
			t.Fatalf("%v: last leave %d, TargetIters %d", ref, last, prof.TargetIters)
		}
	}
	return recs
}

func parse(t *testing.T, src string) *source.Program {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// loopRef returns the ref of the k-th loop of fn.
func loopRef(prog *source.Program, fn string, k int) Ref {
	f := prog.Func(fn)
	return Ref{Fn: fn, Stmt: f.StmtID(f.Loops()[k])}
}

// bodyStmt returns the statement id of the k-th top-level statement of
// the i-th loop of fn.
func bodyStmt(prog *source.Program, fn string, i, k int) int {
	f := prog.Func(fn)
	var body *ast.BlockStmt
	switch l := f.Loops()[i].(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	return f.StmtID(body.List[k])
}

// A recursive re-entry of a traced loop belongs to the outermost
// activation: it counts no iterations, sets no top statement and
// reports no Leave of its own.
func TestTraceRecursiveReentry(t *testing.T) {
	src := `package p
func R(d int) int {
	s := 0
	for i := 0; i < d+1; i++ {
		s += i
		if d > 0 {
			s += R(d - 1)
		}
	}
	return s
}`
	prog := parse(t, src)
	loop := loopRef(prog, "R", 0)
	recurse := bodyStmt(prog, "R", 0, 1)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			recs := checkTrace(t, e.eng, prog, "R", func(*Machine) []Value { return []Value{int64(2)} })
			rec := recs[loop]
			if !reflect.DeepEqual(rec.leaves, []int{3}) {
				t.Fatalf("leaves = %v, want [3]: only the outermost activation counts", rec.leaves)
			}
			inner := 0
			for _, ev := range rec.mem {
				// The final condition check runs as iteration 3.
				if ev.Iter > 3 {
					t.Fatalf("event tagged with iteration %d, outermost loop runs 3", ev.Iter)
				}
				if ev.TopStmt == recurse {
					inner++
				}
			}
			// The recursive calls' own loop bodies run inside the
			// outer activation's if statement.
			if inner == 0 {
				t.Fatal("no events attributed to the recursing statement")
			}
		})
	}
}

// A return out of two nested traced loops closes both, innermost
// first, with the iterations completed so far; loops traced after the
// return see nothing of them.
func TestTraceReturnFromNestedLoops(t *testing.T) {
	src := `package p
func F(n int) int {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i*n+j == 5 {
				return i*10 + j
			}
		}
	}
	return -1
}
func G(n int) int {
	r := F(n)
	t := 0
	for k := 0; k < n; k++ {
		t += k
	}
	return r + t
}`
	prog := parse(t, src)
	outer, inner, after := loopRef(prog, "F", 0), loopRef(prog, "F", 1), loopRef(prog, "G", 0)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			recs := checkTrace(t, e.eng, prog, "G", func(*Machine) []Value { return []Value{int64(4)} })
			if got := recs[inner].leaves; !reflect.DeepEqual(got, []int{4, 1}) {
				t.Fatalf("inner leaves = %v, want [4 1]", got)
			}
			if got := recs[outer].leaves; !reflect.DeepEqual(got, []int{1}) {
				t.Fatalf("outer leaves = %v, want [1]", got)
			}
			if got := recs[after].leaves; !reflect.DeepEqual(got, []int{4}) {
				t.Fatalf("G's loop leaves = %v, want [4]", got)
			}
			for _, ev := range recs[after].mem {
				if ev.Iter > 4 {
					t.Fatalf("G's loop event tagged with iteration %d", ev.Iter)
				}
			}
		})
	}
}

// continue completes an iteration; break completes one in a range loop
// (the tree-walker counts it before stopping) but not in a for loop.
// Both leave the top statement unset for the loop-control accesses
// that follow.
func TestTraceBreakContinue(t *testing.T) {
	src := `package p
func F(a []int) int {
	s := 0
	for i := 0; i < len(a); i++ {
		if a[i] < 0 {
			continue
		}
		if a[i] > 100 {
			break
		}
		s += a[i]
	}
	for _, v := range a {
		if v < 0 {
			continue
		}
		if v > 100 {
			break
		}
		s += v
	}
	return s
}`
	prog := parse(t, src)
	forLoop, rangeLoop := loopRef(prog, "F", 0), loopRef(prog, "F", 1)
	args := func(m *Machine) []Value {
		return []Value{m.NewSlice(int64(1), int64(-2), int64(3), int64(200), int64(5))}
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			recs := checkTrace(t, e.eng, prog, "F", args)
			if got := recs[forLoop].leaves; !reflect.DeepEqual(got, []int{3}) {
				t.Fatalf("for leaves = %v, want [3]", got)
			}
			if got := recs[rangeLoop].leaves; !reflect.DeepEqual(got, []int{4}) {
				t.Fatalf("range leaves = %v, want [4]", got)
			}
			// After the continue at i=1, the post statement and the
			// condition run outside any body statement.
			control := false
			for _, ev := range recs[forLoop].mem {
				if ev.Iter == 2 && ev.TopStmt == -1 {
					control = true
				}
			}
			if !control {
				t.Fatal("no loop-control event in the iteration after continue")
			}
		})
	}
}

// Each outermost entry of a traced loop restarts its iteration count at
// zero, and TargetIters is the count of the last entry — not the
// largest, and not the sum.
func TestTraceIterResetsPerEntry(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n-i; j++ {
			s += j
		}
	}
	return s
}`
	prog := parse(t, src)
	inner := loopRef(prog, "F", 1)
	add := bodyStmt(prog, "F", 1, 0)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			recs := checkTrace(t, e.eng, prog, "F", func(*Machine) []Value { return []Value{int64(3)} })
			rec := recs[inner]
			if !reflect.DeepEqual(rec.leaves, []int{3, 2, 1}) {
				t.Fatalf("leaves = %v, want [3 2 1]", rec.leaves)
			}
			var iters []int
			for _, ev := range rec.mem {
				if ev.Kind == MemStore && ev.TopStmt == add {
					iters = append(iters, ev.Iter)
				}
			}
			if want := []int{0, 1, 2, 0, 1, 0}; !reflect.DeepEqual(iters, want) {
				t.Fatalf("store iterations = %v, want %v", iters, want)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			_, prof, err := m.Run("F", []Value{int64(3)}, Options{TargetLoop: inner})
			if err != nil {
				t.Fatal(err)
			}
			if prof.TargetIters != 1 {
				t.Fatalf("TargetIters = %d, want 1 (the last entry)", prof.TargetIters)
			}
		})
	}
}

// A run that fails inside a traced loop abandons that activation
// without a Leave on either engine; the next run on the same machine
// must start with no active loop, so its trace equals a fresh
// machine's.
func TestTraceAfterRuntimeError(t *testing.T) {
	src := `package p
func F(a []int, k int) int {
	s := 0
	for i := 0; i < 4; i++ {
		s += a[i*k]
	}
	return s
}`
	prog := parse(t, src)
	loop := loopRef(prog, "F", 0)
	args := func(k int64) func(*Machine) []Value {
		return func(m *Machine) []Value {
			return []Value{m.NewSlice(int64(1), int64(2), int64(3), int64(4)), k}
		}
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			fresh := NewMachine(prog)
			fresh.SetEngine(e.eng)
			_, want, err := fresh.Run("F", args(1)(fresh), Options{TargetLoop: loop})
			if err != nil {
				t.Fatal(err)
			}

			for _, mode := range []string{"TargetLoop", "TraceLoops"} {
				m := NewMachine(prog)
				m.SetEngine(e.eng)
				failed := &recSink{}
				opts := Options{TargetLoop: loop}
				if mode == "TraceLoops" {
					m.TraceLoops(map[Ref]TraceSink{loop: failed})
					opts = Options{}
				}
				_, _, err := m.Run("F", args(2)(m), opts)
				if _, ok := err.(*RuntimeError); !ok {
					t.Fatalf("%s: want a RuntimeError, got %v", mode, err)
				}
				if len(failed.leaves) != 0 {
					t.Fatalf("%s: failed run reported leaves %v for the activation it abandoned", mode, failed.leaves)
				}

				clean := &recSink{}
				if mode == "TraceLoops" {
					m.TraceLoops(map[Ref]TraceSink{loop: clean})
				}
				_, prof, err := m.Run("F", args(1)(m), opts)
				if err != nil {
					t.Fatalf("%s: clean run: %v", mode, err)
				}
				if len(m.active) != 0 {
					t.Fatalf("%s: %d activations open after the clean run", mode, len(m.active))
				}
				got, iters := prof.Mem, prof.TargetIters
				if mode == "TraceLoops" {
					got, iters = clean.mem, clean.leaves[len(clean.leaves)-1]
					if len(clean.leaves) != 1 {
						t.Fatalf("%s: clean run leaves = %v", mode, clean.leaves)
					}
				}
				// The same machine allocates fresh addresses, so compare
				// everything but the address.
				if len(got) != len(want.Mem) || iters != want.TargetIters {
					t.Fatalf("%s: clean run traced %d events / %d iterations, fresh machine %d / %d",
						mode, len(got), iters, len(want.Mem), want.TargetIters)
				}
				for i := range got {
					g, w := got[i], want.Mem[i]
					if g.Kind != w.Kind || g.Iter != w.Iter || g.TopStmt != w.TopStmt {
						t.Fatalf("%s: event %d = %+v, fresh machine %+v", mode, i, g, w)
					}
				}
			}
		})
	}
}

// A traced loop that names no loop, or a function the program does not
// have, is ignored by both engines.
func TestTraceUnknownRefs(t *testing.T) {
	prog := parse(t, `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			bogus := map[Ref]TraceSink{}
			var recs []*recSink
			for _, ref := range []Ref{{Fn: "Missing", Stmt: 0}, {Fn: "F", Stmt: 0}, {Fn: "F", Stmt: 999}, {Fn: "F", Stmt: -1}} {
				r := &recSink{}
				bogus[ref] = r
				recs = append(recs, r)
			}
			m.TraceLoops(bogus)
			if _, _, err := m.Run("F", []Value{int64(3)}, Options{}); err != nil {
				t.Fatal(err)
			}
			for i, r := range recs {
				if len(r.mem) != 0 || len(r.leaves) != 0 {
					t.Fatalf("ref %d: got %d events, leaves %v", i, len(r.mem), r.leaves)
				}
			}
		})
	}
}
