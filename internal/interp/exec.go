package interp

import (
	"go/ast"
	"go/token"

	"patty/internal/source"
)

type ctrlKind int

const (
	ctrlNone ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type control struct {
	kind   ctrlKind
	values []Value
	// hasValues distinguishes `return` (named results) from
	// `return x` in functions with named results.
	hasValues bool
}

var ctrlNothing = control{}

// execBlock runs a block in a fresh child scope.
func (m *Machine) execBlock(b *ast.BlockStmt, parent *env, fn *source.Function) control {
	scope := newEnv(parent)
	for _, s := range b.List {
		ctrl := m.execStmt(s, scope, fn)
		if ctrl.kind != ctrlNone {
			return ctrl
		}
	}
	return ctrlNothing
}

// execStmt runs one statement with profiling attribution.
func (m *Machine) execStmt(s ast.Stmt, env *env, fn *source.Function) control {
	ref := Ref{Fn: fn.Name, Stmt: fn.StmtID(s)}
	if m.prof != nil {
		m.prof.Count[ref]++
	}
	m.stack = append(m.stack, ref)
	defer func() { m.stack = m.stack[:len(m.stack)-1] }()
	m.tick(1)

	switch st := s.(type) {
	case *ast.BlockStmt:
		return m.execBlock(st, env, fn)
	case *ast.AssignStmt:
		m.execAssign(st, env, fn)
		return ctrlNothing
	case *ast.IncDecStmt:
		get, set := m.lvalue(st.X, env, fn)
		v := toInt(get())
		if st.Tok == token.INC {
			set(v + 1)
		} else {
			set(v - 1)
		}
		return ctrlNothing
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			fail("unsupported declaration")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			vals := m.evalTuple(vs.Values, len(vs.Names), env, fn)
			for i, name := range vs.Names {
				var v Value
				if len(vs.Values) > 0 {
					v = vals[i]
				} else {
					v = m.zeroValueFor(vs.Type)
				}
				m.defineVar(name, v, env)
			}
		}
		return ctrlNothing
	case *ast.ExprStmt:
		m.evalMulti(st.X, env, fn) // results (possibly none) are discarded
		return ctrlNothing
	case *ast.ReturnStmt:
		if len(st.Results) == 0 {
			return control{kind: ctrlReturn}
		}
		vals := m.evalTuple(st.Results, -1, env, fn)
		return control{kind: ctrlReturn, values: vals, hasValues: true}
	case *ast.IfStmt:
		scope := newEnv(env)
		if st.Init != nil {
			if ctrl := m.execStmt(st.Init, scope, fn); ctrl.kind != ctrlNone {
				return ctrl
			}
		}
		cond, err := truthy(m.eval(st.Cond, scope, fn))
		if err != nil {
			fail("%v", err)
		}
		if cond {
			return m.execBlock(st.Body, scope, fn)
		}
		if st.Else != nil {
			return m.execStmt(st.Else, scope, fn)
		}
		return ctrlNothing
	case *ast.ForStmt:
		lt := m.enterLoop(ref)
		ctrl := m.execFor(st, env, fn, lt)
		m.leaveLoop(lt)
		return ctrl
	case *ast.RangeStmt:
		lt := m.enterLoop(ref)
		ctrl := m.execRange(st, env, fn, lt)
		m.leaveLoop(lt)
		return ctrl
	case *ast.SwitchStmt:
		return m.execSwitch(st, env, fn)
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				fail("labeled break is outside the supported subset")
			}
			return control{kind: ctrlBreak}
		case token.CONTINUE:
			if st.Label != nil {
				fail("labeled continue is outside the supported subset")
			}
			return control{kind: ctrlContinue}
		default:
			fail("unsupported branch statement %s", st.Tok)
		}
	case *ast.LabeledStmt:
		return m.execStmt(st.Stmt, env, fn)
	case *ast.EmptyStmt:
		return ctrlNothing
	default:
		fail("unsupported statement %T", s)
	}
	return ctrlNothing
}

// enterLoop opens an activation of loop ref when the run traces it,
// and returns its trace state (nil when untraced). leaveLoop is not
// deferred: like the VM, a run that fails inside a loop abandons the
// activation without a Leave, and the next run starts with none open.
func (m *Machine) enterLoop(ref Ref) *loopTrace {
	lt := m.traceRef[ref]
	if lt != nil {
		m.openTrace(lt)
	}
	return lt
}

func (m *Machine) leaveLoop(lt *loopTrace) {
	if lt != nil {
		m.closeTrace(lt)
	}
}

// execBodyStmts runs a loop body, tagging the memory events of a
// traced loop's outermost activation with the top-level statement id.
func (m *Machine) execBodyStmts(body *ast.BlockStmt, scope *env, fn *source.Function, lt *loopTrace) control {
	inner := newEnv(scope)
	for _, s := range body.List {
		if lt != nil && lt.depth == 1 {
			lt.top = fn.StmtID(s)
		}
		ctrl := m.execStmt(s, inner, fn)
		if lt != nil && lt.depth == 1 {
			lt.top = -1
		}
		if ctrl.kind != ctrlNone {
			return ctrl
		}
	}
	return ctrlNothing
}

func (m *Machine) execFor(st *ast.ForStmt, parent *env, fn *source.Function, lt *loopTrace) control {
	scope := newEnv(parent)
	if st.Init != nil {
		if ctrl := m.execStmt(st.Init, scope, fn); ctrl.kind != ctrlNone {
			return ctrl
		}
	}
	for {
		if st.Cond != nil {
			cond, err := truthy(m.eval(st.Cond, scope, fn))
			if err != nil {
				fail("%v", err)
			}
			if !cond {
				break
			}
		}
		ctrl := m.execBodyStmts(st.Body, scope, fn, lt)
		if ctrl.kind == ctrlBreak {
			break
		}
		if ctrl.kind == ctrlReturn {
			return ctrl
		}
		if lt != nil && lt.depth == 1 {
			lt.iter++
		}
		if st.Post != nil {
			if c := m.execStmt(st.Post, scope, fn); c.kind != ctrlNone {
				return c
			}
		}
		m.tick(1)
	}
	return ctrlNothing
}

func (m *Machine) execRange(st *ast.RangeStmt, parent *env, fn *source.Function, lt *loopTrace) control {
	scope := newEnv(parent)
	x := m.eval(st.X, scope, fn)

	assignKV := func(iterScope *env, k, v Value, hasV bool) {
		if st.Tok == token.DEFINE {
			if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
				m.defineVar(id, k, iterScope)
			}
			if hasV && st.Value != nil {
				if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
					m.defineVar(id, v, iterScope)
				}
			}
			return
		}
		if st.Key != nil {
			if id, ok := st.Key.(*ast.Ident); !ok || id.Name != "_" {
				_, set := m.lvalue(st.Key, iterScope, fn)
				set(k)
			}
		}
		if hasV && st.Value != nil {
			if id, ok := st.Value.(*ast.Ident); !ok || id.Name != "_" {
				_, set := m.lvalue(st.Value, iterScope, fn)
				set(v)
			}
		}
	}

	runBody := func(iterScope *env) control {
		return m.execBodyStmts(st.Body, iterScope, fn, lt)
	}

	iterate := func(k, v Value, hasV bool) (stop bool, ret control) {
		iterScope := newEnv(scope)
		assignKV(iterScope, k, v, hasV)
		ctrl := runBody(iterScope)
		if lt != nil && lt.depth == 1 {
			lt.iter++
		}
		m.tick(1)
		switch ctrl.kind {
		case ctrlBreak:
			return true, ctrlNothing
		case ctrlReturn:
			return true, ctrl
		}
		return false, ctrlNothing
	}

	switch xs := x.(type) {
	case *Slice:
		for i := 0; i < len(xs.Elems); i++ {
			m.load(xs.base + uint64(i))
			stop, ret := iterate(int64(i), xs.Elems[i], st.Value != nil)
			if stop {
				return ret
			}
		}
	case *Map:
		for _, k := range xs.sortedKeys() {
			if _, ok := xs.M[k]; !ok {
				continue // deleted during the loop: Go never visits it
			}
			if a, ok := xs.addrs[k]; ok {
				m.load(a)
			}
			stop, ret := iterate(k, xs.M[k], st.Value != nil)
			if stop {
				return ret
			}
		}
	case string:
		for i, r := range xs {
			stop, ret := iterate(int64(i), int64(r), st.Value != nil)
			if stop {
				return ret
			}
		}
	case int64:
		for i := int64(0); i < xs; i++ {
			stop, ret := iterate(i, nil, false)
			if stop {
				return ret
			}
		}
	case nil:
		// ranging over a nil slice/map: zero iterations
	default:
		fail("cannot range over %s", formatValue(x))
	}
	return ctrlNothing
}

func (m *Machine) execSwitch(st *ast.SwitchStmt, parent *env, fn *source.Function) control {
	scope := newEnv(parent)
	if st.Init != nil {
		if ctrl := m.execStmt(st.Init, scope, fn); ctrl.kind != ctrlNone {
			return ctrl
		}
	}
	var tag Value = true
	if st.Tag != nil {
		tag = m.eval(st.Tag, scope, fn)
	}
	var defaultClause *ast.CaseClause
	for _, cc := range st.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			defaultClause = clause
			continue
		}
		for _, e := range clause.List {
			v := m.eval(e, scope, fn)
			if equalValues(tag, v) {
				return m.execClause(clause, scope, fn)
			}
		}
	}
	if defaultClause != nil {
		return m.execClause(defaultClause, scope, fn)
	}
	return ctrlNothing
}

func (m *Machine) execClause(clause *ast.CaseClause, parent *env, fn *source.Function) control {
	scope := newEnv(parent)
	for _, s := range clause.Body {
		ctrl := m.execStmt(s, scope, fn)
		if ctrl.kind == ctrlBreak {
			return ctrlNothing // break inside switch leaves the switch
		}
		if ctrl.kind != ctrlNone {
			return ctrl
		}
	}
	return ctrlNothing
}

// execAssign handles =, := and compound assignments.
func (m *Machine) execAssign(st *ast.AssignStmt, env *env, fn *source.Function) {
	switch st.Tok {
	case token.DEFINE:
		vals := m.evalTuple(st.Rhs, len(st.Lhs), env, fn)
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				fail(":= target must be an identifier")
			}
			if id.Name == "_" {
				continue
			}
			// Go redeclaration: reuse a cell declared in this scope.
			if c, exists := env.vars[id.Name]; exists {
				c.val = vals[i]
				m.store(c.addr)
				continue
			}
			m.defineVar(id, vals[i], env)
		}
	case token.ASSIGN:
		vals := m.evalTuple(st.Rhs, len(st.Lhs), env, fn)
		setters := make([]func(Value), len(st.Lhs))
		for i, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
				setters[i] = func(Value) {}
				continue
			}
			_, set := m.lvalue(lhs, env, fn)
			setters[i] = set
		}
		for i, set := range setters {
			set(vals[i])
		}
	default:
		// compound: a op= b
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			fail("invalid compound assignment")
		}
		get, set := m.lvalue(st.Lhs[0], env, fn)
		cur := get()
		rhs := m.eval(st.Rhs[0], env, fn)
		op, ok := compoundOp(st.Tok)
		if !ok {
			fail("unsupported assignment operator %s", st.Tok)
		}
		set(m.binop(op, cur, rhs))
	}
}

// evalTuple evaluates an expression list that must produce want values
// (want < 0: as many as the list produces). A single call expression
// may fan out to multiple results.
func (m *Machine) evalTuple(exprs []ast.Expr, want int, env *env, fn *source.Function) []Value {
	if len(exprs) == 0 {
		return nil
	}
	if len(exprs) == 1 {
		if call, ok := exprs[0].(*ast.CallExpr); ok {
			vals := m.evalCallMulti(call, env, fn)
			if want >= 0 && len(vals) != want {
				fail("assignment mismatch: %d values, %d targets", len(vals), want)
			}
			return vals
		}
	}
	vals := make([]Value, len(exprs))
	for i, e := range exprs {
		vals[i] = m.eval(e, env, fn)
	}
	if want >= 0 && len(vals) != want {
		fail("assignment mismatch: %d values, %d targets", len(vals), want)
	}
	return vals
}

func (m *Machine) defineVar(id *ast.Ident, v Value, env *env) {
	c := &cell{addr: m.alloc(1), val: v}
	env.define(id.Name, c)
	m.store(c.addr)
}
