package interp

import (
	"go/ast"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"patty/internal/source"
)

// engines drives the table-driven ports of the cost/trace tests: every
// subtest runs once per engine and must observe identical behavior.
var engines = []struct {
	name string
	eng  Engine
}{
	{"tree", EngineTree},
	{"vm", EngineVM},
}

func TestEngineIntrinsicCostCharging(t *testing.T) {
	src := `package p
func F(x int) int { return heavy(x) * 2 }`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			m.RegisterIntrinsic(Intrinsic{Name: "heavy", Cost: 1000, Fn: func(args []Value) Value {
				return toInt(args[0]) + 1
			}})
			vals, prof, err := m.Run("F", []Value{int64(20)}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if vals[0] != int64(42) {
				t.Fatalf("got %v", vals[0])
			}
			if prof.Total < 1000 {
				t.Fatalf("intrinsic cost not charged: total %d", prof.Total)
			}
		})
	}
}

func TestEngineCrossIterationStoreLoad(t *testing.T) {
	src := `package p
func F(a []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + 1
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			fn := prog.Func("F")
			loop := fn.Loops()[0]
			a := m.NewSlice(int64(0), int64(0), int64(0), int64(0), int64(0))
			_, prof, err := m.Run("F", []Value{a, int64(5)},
				Options{TargetLoop: Ref{Fn: "F", Stmt: fn.StmtID(loop)}})
			if err != nil {
				t.Fatal(err)
			}
			if prof.TargetIters != 4 {
				t.Fatalf("TargetIters = %d, want 4", prof.TargetIters)
			}
			if len(prof.Mem) == 0 {
				t.Fatal("no memory events")
			}
			stores := map[uint64]int{}
			carried := false
			for _, ev := range prof.Mem {
				if ev.Kind == MemStore {
					stores[ev.Addr] = ev.Iter
				} else if it, ok := stores[ev.Addr]; ok && ev.Iter > it {
					carried = true
				}
			}
			if !carried {
				t.Fatal("expected cross-iteration store→load pair in trace")
			}
			if a.Elems[4] != int64(4) {
				t.Fatalf("final array wrong: %v", a.Elems)
			}
		})
	}
}

func TestEngineIndependentLoopTrace(t *testing.T) {
	src := `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			fn := prog.Func("F")
			loop := fn.Loops()[0]
			a := m.NewSlice(int64(1), int64(2), int64(3))
			b := m.NewSlice(int64(0), int64(0), int64(0))
			_, prof, err := m.Run("F", []Value{a, b, int64(3)},
				Options{TargetLoop: Ref{Fn: "F", Stmt: fn.StmtID(loop)}})
			if err != nil {
				t.Fatal(err)
			}
			stores := map[uint64]int{}
			for _, ev := range prof.Mem {
				if ev.Kind == MemStore && ev.TopStmt >= 0 {
					stores[ev.Addr] = ev.Iter
				}
			}
			for _, ev := range prof.Mem {
				if it, ok := stores[ev.Addr]; ok && ev.Iter != it && ev.Kind == MemLoad {
					t.Fatalf("unexpected cross-iteration dependence at addr %d", ev.Addr)
				}
			}
		})
	}
}

func TestEngineProfileCountsAndTimes(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += slow(i)
	}
	return s
}
func slow(x int) int {
	t := 0
	for j := 0; j < 50; j++ {
		t += j * x
	}
	return t
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			_, prof, err := m.Run("F", []Value{int64(20)}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prof.Total == 0 {
				t.Fatal("no time recorded")
			}
			fn := prog.Func("F")
			loopRef := Ref{Fn: "F", Stmt: fn.StmtID(fn.Loops()[0])}
			if prof.Count[loopRef] != 1 {
				t.Fatalf("loop executed %d times, want 1", prof.Count[loopRef])
			}
			var bodyRef Ref
			found := false
			for id := 0; id < fn.NumStmts(); id++ {
				if as, ok := fn.Stmt(id).(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN {
					bodyRef = Ref{Fn: "F", Stmt: id}
					found = true
				}
			}
			if !found {
				t.Fatal("could not locate s += slow(i)")
			}
			if prof.Count[bodyRef] != 20 {
				t.Fatalf("body count = %d, want 20", prof.Count[bodyRef])
			}
			if prof.Incl[bodyRef] <= prof.Self[bodyRef] {
				t.Fatalf("inclusive time must exceed self time: incl=%d self=%d",
					prof.Incl[bodyRef], prof.Self[bodyRef])
			}
			if prof.Incl[loopRef] < prof.Incl[bodyRef] {
				t.Fatal("loop inclusive time must cover the body")
			}
		})
	}
}

func TestEngineTickBudget(t *testing.T) {
	src := `package p
func F() {
	for {
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			_, _, err = m.Run("F", nil, Options{MaxTicks: 10000})
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("expected budget exhaustion, got %v", err)
			}
		})
	}
}

// TestEngineEquivalenceFeatures runs a feature-panel of handwritten
// programs on both engines and requires identical values, errors, total
// virtual time and profile maps — a fast in-package complement to the
// generator-driven differential suite in internal/difftest. The panel
// covers what the generator never produces: closures, and ill-formed
// programs that must fail with a runtime error, not a Go panic.
func TestEngineEquivalenceFeatures(t *testing.T) {
	cases := []panelCase{
		{"loop-scoped-redefine", `package p
func F() int {
	s := 0
	for i := 0; i < 3; i++ {
		x := i * 2
		x, y := x+1, 5
		s += x + y
	}
	return s
}`, "F", nil, "", ""},
		{"array-zero-values", `package p
const N = 3
type T struct {
	A [2]int
	F [2]float64
}
func F() int {
	var a [N]int
	a[1] = 5
	var t T
	t.A[0] = 4
	t.F[1] += 0.5
	var g [2][2]int
	g[1][0] = 7
	s := a[0] + a[1] + a[2] + t.A[0] + t.A[1] + len(a) + g[1][0] + g[0][1]
	if t.F[1] == 0.5 && t.F[0] == 0.0 {
		s += 100
	}
	return s
}`, "F", nil, "", "119"},
		{"range-map-mutation", `package p
func F() int {
	m := map[string]int{"a": 1, "b": 2, "c": 3}
	s := 0
	for k, v := range m {
		if k == "a" {
			delete(m, "b")
		}
		s += v
	}
	return s + len(m)
}`, "F", nil, "", "6"},
		{"switch-fallthrough-free", `package p
func F(x int) string {
	switch x % 3 {
	case 0:
		return "zero"
	case 1:
		return "one"
	default:
		return "many"
	}
}`, "F", []Value{int64(7)}, "", ""},
		{"methods-and-fields", `package p
type Acc struct{ Sum, N int }
func (a *Acc) Add(x int) { a.Sum += x; a.N++ }
func F() int {
	a := &Acc{}
	for i := 0; i < 5; i++ {
		a.Add(i)
	}
	return a.Sum*10 + a.N
}`, "F", nil, "", "105"},
		{"struct-zero-fields", `package p
type In struct{ N int }
type P struct {
	X, Y float64
	Tag  string
	Ok   bool
	In   In
	Next *P
}
func F() int {
	p := P{X: 1}
	p.Y += 2
	p.In.N++
	q := new(P)
	q.In.N += 3
	n := 0
	if !p.Ok && p.Next == nil && p.Tag == "" {
		n = 100
	}
	return n + int(p.X+p.Y)*10 + p.In.N + q.In.N
}`, "F", nil, "", "134"},
		{"string-ops", `package p
func F(s string) int {
	n := 0
	for i, r := range s {
		n += i + int(r)
	}
	return n + len(s[1:3])
}`, "F", []Value{"héllo"}, "", ""},
		{"named-results", `package p
func div(a, b int) (q, r int) {
	q = a / b
	r = a % b
	return
}
func F() int {
	q, r := div(17, 5)
	return q*100 + r
}`, "F", nil, "", ""},
		{"runtime-error", `package p
func F(n int) int {
	a := make([]int, 3)
	return a[n]
}`, "F", []Value{int64(7)}, "slice index 7 out of range", ""},
		{"division-by-zero", `package p
func F(n int) int { return 10 / n }`, "F", []Value{int64(0)}, "integer division by zero", ""},
		{"global-init-order", `package p
var a = 10
var b = a * 2
var c = helper()
func helper() int { return b + 1 }
func F() int { return a + b + c }`, "F", nil, "", ""},
		{"min-max-varargs", `package p
func F() int { return min(3, 1, 2)*100 + max(3, 1, 2) }`, "F", nil, "", ""},
		{"float-int-equality", `package p
func F() int {
	var x float64
	s := 0
	if x == 0 {
		s += 1
	}
	y := 2.0
	if y != 2 {
		s += 10
	}
	if 3 == y+1 {
		s += 100
	}
	switch y {
	case 1:
		s += 1000
	case 2:
		s += 2000
	}
	return s
}`, "F", nil, "", "2101"},
		{"array-literal-length", `package p
type P struct{ X int }
func F() int {
	a := [3]int{1}
	b := [4]float64{1.5, 2}
	ps := [2]P{P{X: 4}}
	c := [...]int{5, 6}
	s := []int{7}
	n := len(a)*1000 + len(b)*100 + len(c)*10 + len(s)
	t := a[0] + a[2] + int(b[1]+b[3]) + ps[0].X + ps[1].X + c[1] + s[0]
	ps[1].X = 9
	return n*100 + t + ps[1].X
}`, "F", nil, "", "342129"},
		{"duplicate-global", `package p
var a = 1
var b = a * 10
var a = 2
func F() int { return a + b }`, "F", nil, "", ""},
	}
	cases = append(cases, closureCases...)
	cases = append(cases, initCases...)
	cases = append(cases, illFormedCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				vals []string
				errS string
				prof *Profile
			}
			runOn := func(eng Engine) outcome {
				m := NewMachine(prog)
				m.SetEngine(eng)
				vals, prof, err := m.Run(tc.fn, tc.args, Options{})
				o := outcome{prof: prof}
				for _, v := range vals {
					o.vals = append(o.vals, formatValue(v))
				}
				if err != nil {
					o.errS = err.Error()
				}
				return o
			}
			tr := runOn(EngineTree)
			vm := runOn(EngineVM)
			if tr.errS != vm.errS {
				t.Fatalf("error mismatch: tree=%q vm=%q", tr.errS, vm.errS)
			}
			if tc.wantErr != "" && !strings.Contains(tr.errS, tc.wantErr) {
				t.Fatalf("error %q, want %q", tr.errS, tc.wantErr)
			}
			if got := strings.Join(tr.vals, ","); tc.want != "" && (got != tc.want || tr.errS != "") {
				t.Fatalf("got %s (error %q), want %s", got, tr.errS, tc.want)
			}
			if strings.Join(tr.vals, ",") != strings.Join(vm.vals, ",") {
				t.Fatalf("value mismatch: tree=%v vm=%v", tr.vals, vm.vals)
			}
			if tr.prof == nil || vm.prof == nil {
				return // both failed with the same error
			}
			if tr.prof.Total != vm.prof.Total {
				t.Fatalf("virtual time: tree=%d vm=%d", tr.prof.Total, vm.prof.Total)
			}
			for _, p := range []struct {
				name   string
				tr, vm map[Ref]uint64
			}{{"incl", tr.prof.Incl, vm.prof.Incl}, {"self", tr.prof.Self, vm.prof.Self}, {"count", tr.prof.Count, vm.prof.Count}} {
				if !reflect.DeepEqual(p.tr, p.vm) {
					t.Fatalf("%s profile: tree=%v vm=%v", p.name, p.tr, p.vm)
				}
			}
		})
	}
}

type panelCase struct {
	name, src, fn string
	args          []Value
	wantErr       string // when set, a substring of the run's error
	want          string // when set, the run's formatted results
}

// closureCases are the closure programs of the engine panel.
var closureCases = []panelCase{
	{"closure-counter", `package p
func F() int {
	n := 0
	inc := func() int { n++; return n }
	inc()
	inc()
	return inc()*10 + n
}`, "F", nil, "", "33"},
	{"closure-per-iteration", `package p
func F() int {
	var fs []func() int
	for i := 0; i < 3; i++ {
		j := i
		fs = append(fs, func() int { return j * 10 })
	}
	for _, v := range []int{4, 5} {
		fs = append(fs, func() int { return v })
	}
	s := 0
	for _, f := range fs {
		s = s*100 + f()
	}
	return s
}`, "F", nil, "", "10200405"},
	{"closure-for-clause-var", `package p
func F() int {
	var fs []func() int
	for i := 0; i < 3; i++ {
		fs = append(fs, func() int { i += 10; return i })
	}
	return fs[0]()*100 + fs[2]()
}`, "F", nil, "", ""},
	{"closure-returned", `package p
func adder(base int) func(int) int {
	return func(x int) int { base += x; return base }
}
func F() int {
	a := adder(10)
	b := adder(100)
	a(1)
	b(2)
	return a(5)*1000 + b(3)
}`, "F", nil, "", "16105"},
	{"closure-nested", `package p
func F() int {
	x := 1
	outer := func(y int) func() int {
		z := y * 2
		return func() int { x += z; return x + y }
	}
	g := outer(3)
	g()
	return g()*100 + x
}`, "F", nil, "", "1613"},
	{"closure-argument", `package p
func apply(f func(int) int, xs []int) int {
	s := 0
	for _, x := range xs {
		s += f(x)
	}
	return s
}
func F() int {
	k := 3
	calls := 0
	return apply(func(x int) int { calls++; return x * k }, []int{1, 2, 3})*10 + calls
}`, "F", nil, "", "183"},
	{"closure-recursion", `package p
func F(n int) int {
	var fib func(int) int
	fib = func(k int) int {
		if k < 2 {
			return k
		}
		return fib(k-1) + fib(k-2)
	}
	return fib(n)
}`, "F", []Value{int64(12)}, "", "144"},
	{"closure-frame-captures", `package p
type Acc struct{ N int }
func (a *Acc) Twice(k int) (out int) {
	add := func() { a.N += k; out += a.N }
	add()
	add()
	return
}
func F() int {
	a := &Acc{N: 1}
	r := a.Twice(5)
	x := 1
	f := func() int { return x }
	x, y := 7, 2
	sq := func(v int) (r int) { r = v * v; return }(4)
	return r*1000 + f()*100 + y*10 + sq
}`, "F", nil, "", "17736"},
	{"closure-late-binding", `package p
func F() int {
	x := 1
	{
		f := func() int { return x }
		x := 2
		_ = x
		return f()
	}
}`, "F", nil, "", "1"},
	{"closure-shadow-in-loop", `package p
func F() int {
	s := 0
	y := 100
	for i := 0; i < 3; i++ {
		g := func() int { return y }
		y := i
		s += g() + y
	}
	return s
}`, "F", nil, "", "303"},
	{"result-redeclare", `package p
func F() (x int) {
	a, x := 1, 2
	_ = a
	return
}`, "F", nil, "", "2"},
	{"closure-depth-guard", `package p
func F() int {
	var f func(int) int
	f = func(n int) int { return f(n + 1) }
	return f(0)
}`, "F", nil, "call depth exceeds 4096 (runaway recursion in closure?)", ""},
	{"closure-arity", `package p
func F() int {
	f := func(a int) int { return a }
	return f(1, 2)
}`, "F", nil, "argument count mismatch calling closure: have 2, want 1", ""},
	{"closure-outside-function", `package p
var g = func() int { return 1 }
func F() int { return g() }`, "F", nil, "closure outside any function", ""},
}

// initCases initialize package-level variables in Go's dependency
// order, not in declaration order.
var initCases = []panelCase{
	{"init-through-function", `package p
var a = f()
var b = 2
func f() int { return b }
func F() int { return a }`, "F", nil, "", "2"},
	{"init-chain", `package p
var x = y * 10
var y = z + 1
var z = 4
func F() int { return x + y + z }`, "F", nil, "", "59"},
	{"init-through-method", `package p
type T struct{ k int }
func (t T) Get() int { return t.k + base }
var v = T{k: 1}.Get()
var base = 40
func F() int { return v }`, "F", nil, "", "41"},
	{"init-const-declared-later", `package p
var a = K + 1
const K = 3
func F() int { return a }`, "F", nil, "", "4"},
	{"init-multi-value", `package p
var a, b = two()
func two() (int, int) { return c + 1, c + 2 }
var c = 10
func F() int { return a*100 + b }`, "F", nil, "", "1112"},
}

// illFormedCases must each fail with the same runtime error on both
// engines instead of a Go panic; most of them parse but type-check
// nowhere.
var illFormedCases = []panelCase{
	{"len-no-args", `package p
func F() int { return len() }`, "F", nil, "not enough arguments in call to len", ""},
	{"conversion-no-args", `package p
func F() int { return int() }`, "F", nil, "not enough arguments in call to int", ""},
	{"append-no-args", `package p
func F() []int { return append() }`, "F", nil, "not enough arguments in call to append", ""},
	{"append-fan-out-none", `package p
func none() {}
func F() []int { return append(none()) }`, "F", nil, "not enough arguments in call to append", ""},
	{"append-non-slice", `package p
func F() []int { return append(5, 1) }`, "F", nil, "first argument to append must be a slice", ""},
	{"min-fan-out-none", `package p
func none() {}
func F() int { return min(none()) }`, "F", nil, "not enough arguments in call to min", ""},
	{"copy-one-arg", `package p
func F() int { a := []int{1}; return copy(a) }`, "F", nil, "not enough arguments in call to copy", ""},
	{"delete-one-arg", `package p
func F() { m := map[int]int{1: 2}; delete(m) }`, "F", nil, "not enough arguments in call to delete", ""},
	{"panic-no-args", `package p
func F() { panic() }`, "F", nil, "not enough arguments in call to panic", ""},
	{"make-negative-length", `package p
func F(n int) int { a := make([]int, n); return len(a) }`, "F", []Value{int64(-1)}, "negative length -1 in make", ""},
	{"struct-key-expression", `package p
type T struct{ A int }
func F() int { t := T{A: 1, 1 + 1: 3}; return t.A }`, "F", nil, "struct literal key must be a field name", ""},
	{"struct-unknown-field", `package p
type T struct{ A int }
func F() int { t := T{A: 1, B: 2}; return t.A }`, "F", nil, "unknown field B in struct literal of type T", ""},
	{"closure-self-reference", `package p
func F() int {
	g := func(n int) int {
		if n == 0 {
			return 0
		}
		return g(n-1) + 1
	}
	return g(3)
}`, "F", nil, `undefined function "g"`, ""},
	{"range-int-value", `package p
func F() int {
	s := 0
	for i, v := range 3 {
		s += i
		_ = v
	}
	return s
}`, "F", nil, "range over int permits only one iteration variable", ""},
}
