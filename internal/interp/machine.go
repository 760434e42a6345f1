package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"strconv"

	"patty/internal/deps"
	"patty/internal/source"
)

// Ref identifies a statement for profiling: function name plus
// function-local statement id.
type Ref struct {
	Fn   string
	Stmt int
}

// MemKind distinguishes loads from stores in the memory trace.
type MemKind int

const (
	// MemLoad is a read of a traced cell.
	MemLoad MemKind = iota
	// MemStore is a write of a traced cell.
	MemStore
)

// MemEvent is one traced access inside a traced loop.
type MemEvent struct {
	Addr uint64
	Kind MemKind
	// Iter is the traced loop's iteration index the access happened in.
	Iter int
	// TopStmt is the statement id of the traced loop's top-level body
	// statement the access is attributed to (-1 if outside one, e.g.
	// the loop condition).
	TopStmt int
}

// Profile is the runtime information gathered by a run.
type Profile struct {
	// Total is the virtual running time of the whole execution.
	Total uint64
	// Incl is the inclusive virtual time per statement (time spent in
	// the statement and everything it called).
	Incl map[Ref]uint64
	// Self is the exclusive virtual time per statement.
	Self map[Ref]uint64
	// Count is the number of executions per statement.
	Count map[Ref]uint64
	// Mem is the memory trace of Options.TargetLoop, if one was set.
	Mem []MemEvent
	// TargetIters is the number of completed iterations of the last
	// outermost activation of Options.TargetLoop.
	TargetIters int
}

// RuntimeError is an execution failure (unsupported construct, type
// error, out-of-range access, step budget exhausted).
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return "interp: " + e.Msg }

func fail(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

// Intrinsic is a host-implemented function with a declared virtual
// cost, used for workload kernels (image filters, math routines) whose
// internals are not interesting to the analysis.
type Intrinsic struct {
	Name string
	Cost uint64
	Fn   func(args []Value) Value
}

// Options configures a run.
type Options struct {
	// TargetLoop selects a loop whose memory accesses are traced into
	// the run's Profile.Mem (zero value: none). Machine.TraceLoops
	// traces any number of loops into sinks of their own.
	TargetLoop Ref
	// MaxTicks bounds execution (0: default 200 million).
	MaxTicks uint64
	// Output receives println output; nil discards it.
	Output func(string)
}

// Machine interprets one program.
type Machine struct {
	prog        *source.Program
	globals     map[string]*cell // the tree walker's initialized globals
	structTypes map[string]*structType
	intrinsics  map[string]*Intrinsic

	// Both engines bind identifiers through these, filled as functions
	// are first run or compiled.
	funcs map[*source.Function]*function
	lits  map[*ast.FuncLit]*litInfo
	// inits is the package-level vars and consts in initialization
	// order, filled by the first run or compile.
	inits []pkgVar

	clock    uint64
	maxTicks uint64
	nextAddr uint64
	output   func(string)

	// profiling
	prof  *Profile
	depth int // live call frames; guards against runaway recursion
	stack []Ref

	// loop tracing (trace.go)
	sinks    map[Ref]TraceSink
	traces   []loopTrace        // this run's traced loops
	active   []*loopTrace       // outermost activations in progress, innermost last
	traceRef map[Ref]*loopTrace // tree-walker lookup into traces

	// bytecode engine state
	engine Engine
	vmc    *vmCompiled // nil until the first VM run compiles the program
	vm     *vmState
}

type funcDecl struct{ d *ast.FuncDecl }
type funcLit struct{ l *ast.FuncLit } // a tree-walker closure

func (funcDecl) isDecl() {}
func (funcLit) isDecl()  {}

// function is a program function with its lexical resolution.
type function struct {
	*source.Function
	res *deps.Resolution
}

// litInfo is what both engines know of a function literal: the
// function that encloses it and its free variables, the locals of that
// function it names but does not declare, in first-use order. A
// closure captures the cells of its free variables when it is created.
type litInfo struct {
	fn   *function
	free []*deps.Symbol
}

// function returns pf with its resolution, resolving it and its
// function literals on first use.
func (m *Machine) function(pf *source.Function) *function {
	if f, ok := m.funcs[pf]; ok {
		return f
	}
	f := &function{Function: pf, res: deps.Resolve(pf)}
	m.funcs[pf] = f
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			m.lits[lit] = &litInfo{fn: f, free: f.free(lit)}
		}
		return true
	})
	return f
}

// local returns the variable id denotes when it is a local of f (a
// receiver, parameter, named result or local, those of its function
// literals included). It returns nil for every other identifier: those
// resolve against the package-level names.
func (f *function) local(id *ast.Ident) *deps.Symbol {
	if f == nil {
		return nil
	}
	s := f.res.SymbolOf(id)
	if s == nil || s.Kind == deps.GlobalSym || s.Kind == deps.FuncSym {
		return nil
	}
	return s
}

// free lists the free variables of lit, a function literal of f.
func (f *function) free(lit *ast.FuncLit) []*deps.Symbol {
	var out []*deps.Symbol
	seen := make(map[*deps.Symbol]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if s := f.local(id); s != nil && !seen[s] && (s.Decl < lit.Pos() || s.Decl >= lit.End()) {
			seen[s] = true
			out = append(out, s)
		}
		return true
	})
	return out
}

// NewMachine prepares an interpreter for prog. Standard intrinsics
// (math.Sqrt, math.Abs, math.Pow, math.Floor, math.Ceil, math.Sin,
// math.Cos, math.Inf) are pre-registered.
func NewMachine(prog *source.Program) *Machine {
	m := &Machine{
		prog:        prog,
		structTypes: make(map[string]*structType),
		intrinsics:  make(map[string]*Intrinsic),
		funcs:       make(map[*source.Function]*function),
		lits:        make(map[*ast.FuncLit]*litInfo),
		nextAddr:    1,
	}
	m.collectTypes()
	m.registerStdIntrinsics()
	return m
}

// RegisterIntrinsic installs (or replaces) an intrinsic callable by
// name ("f") or qualified name ("pkg.f").
func (m *Machine) RegisterIntrinsic(in Intrinsic) {
	cp := in
	m.intrinsics[in.Name] = &cp
	// The compiled form binds intrinsic pointers; recompile lazily.
	m.vmc, m.vm = nil, nil
}

func (m *Machine) registerStdIntrinsics() {
	unary := func(name string, cost uint64, f func(float64) float64) {
		m.RegisterIntrinsic(Intrinsic{Name: name, Cost: cost, Fn: func(args []Value) Value {
			return f(toFloat(args[0]))
		}})
	}
	unary("math.Sqrt", 8, math.Sqrt)
	unary("math.Abs", 2, math.Abs)
	unary("math.Floor", 2, math.Floor)
	unary("math.Ceil", 2, math.Ceil)
	unary("math.Sin", 12, math.Sin)
	unary("math.Cos", 12, math.Cos)
	m.RegisterIntrinsic(Intrinsic{Name: "math.Pow", Cost: 16, Fn: func(args []Value) Value {
		return math.Pow(toFloat(args[0]), toFloat(args[1]))
	}})
	m.RegisterIntrinsic(Intrinsic{Name: "math.Inf", Cost: 1, Fn: func(args []Value) Value {
		return math.Inf(int(toInt(args[0])))
	}})
	m.RegisterIntrinsic(Intrinsic{Name: "math.MaxInt", Cost: 1, Fn: func(args []Value) Value {
		return int64(math.MaxInt64)
	}})
}

func toFloat(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	fail("expected numeric value, got %s", formatValue(v))
	return 0
}

func toInt(v Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	fail("expected integer value, got %s", formatValue(v))
	return 0
}

// collectTypes indexes struct type declarations for composite literals
// and zero values.
func (m *Machine) collectTypes() {
	for _, file := range m.prog.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				t := &structType{name: ts.Name.Name, index: make(map[string]int)}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						t.index[name.Name] = len(t.fields)
						t.fields = append(t.fields, name.Name)
						t.types = append(t.types, f.Type)
					}
				}
				m.structTypes[t.name] = t
			}
		}
	}
}

// alloc reserves n consecutive addresses and returns the first.
func (m *Machine) alloc(n int) uint64 {
	a := m.nextAddr
	m.nextAddr += uint64(n)
	return a
}

// tick advances virtual time and attributes it to the statement stack.
func (m *Machine) tick(cost uint64) {
	m.clock += cost
	if m.maxTicks > 0 && m.clock > m.maxTicks {
		fail("virtual time budget exhausted (%d ticks)", m.maxTicks)
	}
	if m.prof == nil {
		return
	}
	if n := len(m.stack); n > 0 {
		m.prof.Self[m.stack[n-1]] += cost
		// Attribute inclusive time once per distinct frame; the stack
		// is short, so allocation-free linear dedup beats a map here.
		for i, r := range m.stack {
			dup := false
			for j := 0; j < i; j++ {
				if m.stack[j] == r {
					dup = true
					break
				}
			}
			if !dup {
				m.prof.Incl[r] += cost
			}
		}
	}
}

// runTree executes the named function on the reference tree-walking
// engine (see Run in engine.go for dispatch).
func (m *Machine) runTree(fnName string, args []Value, opts Options) (results []Value, prof *Profile, err error) {
	m.clock = 0
	m.maxTicks = opts.MaxTicks
	if m.maxTicks == 0 {
		m.maxTicks = 200_000_000
	}
	m.output = opts.Output
	m.prof = &Profile{
		Incl:  make(map[Ref]uint64),
		Self:  make(map[Ref]uint64),
		Count: make(map[Ref]uint64),
	}
	m.beginTrace(opts.TargetLoop)
	m.indexTraces()
	m.stack = m.stack[:0]

	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()

	m.globals = make(map[string]*cell)
	m.initGlobals()

	ret := m.callFunction(m.prog.Func(fnName), nil, args)
	m.prof.Total = m.clock
	return ret, m.prof, nil
}

// initGlobals evaluates package-level var declarations in
// initialization order (initOrder).
func (m *Machine) initGlobals() {
	for _, v := range m.packageVars() {
		var val Value
		if v.value != nil {
			val = m.eval(v.value, nil, nil)
		} else {
			val = m.zeroValueFor(v.typ)
		}
		m.globals[v.name.Name] = &cell{addr: m.alloc(1), val: val}
	}
}

// callFunction invokes a program function or method.
func (m *Machine) callFunction(pf *source.Function, recv Value, args []Value) []Value {
	fn := m.function(pf)
	fr := make(frame)
	decl := fn.Decl
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				fr.bind(fn, name, &cell{addr: m.alloc(1), val: recv})
			}
		}
	}
	return m.call(fn.Name, decl.Type, decl.Body, fr, fn, args)
}

// bind gives the variable id declares the cell c.
func (fr frame) bind(fn *function, id *ast.Ident, c *cell) {
	if sym := fn.local(id); sym != nil {
		fr[sym] = c
	}
}

// call runs a function, method or closure body in frame fr: parameters
// and named results get cells in declaration order, the call counts
// against the depth guard and costs 5 ticks. fn attributes the body's
// statements and resolves its identifiers; it is nil only for a
// closure declared outside every function, which fails once called.
func (m *Machine) call(name string, ft *ast.FuncType, body *ast.BlockStmt, fr frame, fn *function, args []Value) []Value {
	idx := 0
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, pn := range f.Names {
				if idx >= len(args) {
					fail("too few arguments calling %s", name)
				}
				fr.bind(fn, pn, &cell{addr: m.alloc(1), val: args[idx]})
				idx++
			}
		}
	}
	if idx != len(args) {
		fail("argument count mismatch calling %s: have %d, want %d", name, len(args), idx)
	}
	// Named results start at zero values.
	var results []*cell
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, rn := range f.Names {
				c := &cell{addr: m.alloc(1), val: m.zeroValueFor(f.Type)}
				fr.bind(fn, rn, c)
				results = append(results, c)
			}
		}
	}

	m.depth++
	if m.depth > 4096 {
		fail("call depth exceeds 4096 (runaway recursion in %s?)", name)
	}
	defer func() { m.depth-- }()
	m.tick(5) // call overhead
	if fn == nil {
		fail("closure outside any function")
	}
	ctrl := m.execStmts(body.List, fr, fn)

	if ctrl.kind == ctrlReturn && ctrl.hasValues {
		return ctrl.values
	}
	// Bare return or fell off the end: collect named results.
	var out []Value
	for _, c := range results {
		out = append(out, c.val)
	}
	return out
}

// zeroValueFor produces a zero value from a type expression.
func (m *Machine) zeroValueFor(texpr ast.Expr) Value {
	switch t := texpr.(type) {
	case nil:
		return nil
	case *ast.Ident:
		switch t.Name {
		case "int", "int64", "byte", "rune", "uint", "int32":
			return int64(0)
		case "float64", "float32":
			return float64(0)
		case "bool":
			return false
		case "string":
			return ""
		default:
			if st, ok := m.structTypes[t.Name]; ok {
				return m.newStruct(st, 0)
			}
			return nil
		}
	case *ast.ArrayType:
		if t.Len == nil {
			return nil // nil slice
		}
		n := m.arrayLen(t.Len)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = m.zeroValueFor(t.Elt)
		}
		return &Slice{Elems: elems, base: m.alloc(len(elems) + 1)}
	case *ast.MapType:
		return nil // nil map
	case *ast.StarExpr:
		return nil
	case *ast.SelectorExpr:
		return nil
	case *ast.FuncType:
		return nil
	}
	return nil
}

// arrayLen evaluates the length of an array type: an integer literal,
// or a package-level constant (in parentheses or not) whose value is
// one. It reads the declarations, not a run's globals, so both engines
// see the same length.
func (m *Machine) arrayLen(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return m.arrayLen(x.X)
	case *ast.BasicLit:
		if n, err := strconv.ParseInt(x.Value, 0, 64); err == nil && x.Kind == token.INT && n >= 0 {
			return int(n)
		}
	case *ast.Ident:
		for _, file := range m.prog.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if name.Name == x.Name && i < len(vs.Values) {
							return m.arrayLen(vs.Values[i])
						}
					}
				}
			}
		}
	}
	fail("unsupported array length %s", types.ExprString(e))
	return 0
}

// arrayLit gives an array literal the length of its type: the listed
// elements, then the element type's zero value up to the length. A
// slice literal, or an array of length [...], keeps what it lists.
// Both engines build every array literal through it.
func (m *Machine) arrayLit(t *ast.ArrayType, elems []Value) []Value {
	if _, ok := t.Len.(*ast.Ellipsis); ok || t.Len == nil {
		return elems
	}
	n := m.arrayLen(t.Len)
	if len(elems) > n {
		fail("array index %d out of bounds [0:%d]", n, n)
	}
	for len(elems) < n {
		elems = append(elems, m.zeroValueFor(t.Elt))
	}
	return elems
}

// structType is a declared struct type: its field names in declaration
// order with their indexes and type expressions. Its instances share
// the names and the index.
type structType struct {
	name   string
	fields []string
	types  []ast.Expr
	index  map[string]int
}

// literalSet returns the fields a composite literal of st with
// elements elts assigns, as newStruct's set.
func (st *structType) literalSet(elts []ast.Expr) uint64 {
	var set uint64
	for i, el := range elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if i, ok = st.index[id.Name]; !ok {
				continue
			}
		}
		if i < 64 {
			set |= 1 << i
		}
	}
	return set
}

// newStruct returns an instance of st whose fields hold their types'
// zero values, except the fields in set (bit i for field i, among the
// first 64), which the caller assigns next: a literal's fields get no
// zero value first.
func (m *Machine) newStruct(st *structType, set uint64) *Struct {
	s := &Struct{Type: st.name, typ: st, fields: make([]Value, len(st.fields))}
	s.base = m.alloc(len(st.fields) + 1)
	for i := range st.fields {
		if i < 64 && set&(1<<i) != 0 {
			continue
		}
		s.fields[i] = m.zeroValueFor(st.types[i])
	}
	return s
}

// NewSlice builds a host-provided slice value (for passing inputs).
func (m *Machine) NewSlice(vals ...Value) *Slice {
	s := &Slice{Elems: append([]Value(nil), vals...)}
	s.base = m.alloc(len(vals) + 1)
	return s
}

// NewStructValue builds a host-provided struct instance of a declared
// type, with fields assigned in declaration order.
func (m *Machine) NewStructValue(typeName string, fieldValues ...Value) *Struct {
	st, ok := m.structTypes[typeName]
	if !ok {
		fail("unknown struct type %s", typeName)
	}
	var set uint64
	for i := range min(len(fieldValues), len(st.fields), 64) {
		set |= 1 << i
	}
	s := m.newStruct(st, set)
	copy(s.fields, fieldValues)
	return s
}

// Clock returns the current virtual time.
func (m *Machine) Clock() uint64 { return m.clock }
