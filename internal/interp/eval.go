package interp

import (
	"go/ast"
	"go/token"

	"patty/internal/source"
)

// eval evaluates an expression to exactly one value.
func (m *Machine) eval(e ast.Expr, env *env, fn *source.Function) Value {
	vals := m.evalMulti(e, env, fn)
	if len(vals) != 1 {
		fail("expression yields %d values where one is required", len(vals))
	}
	return vals[0]
}

// evalMulti evaluates an expression, allowing multi-value calls.
func (m *Machine) evalMulti(e ast.Expr, env *env, fn *source.Function) []Value {
	if call, ok := e.(*ast.CallExpr); ok {
		return m.evalCallMulti(call, env, fn)
	}
	return []Value{m.evalSingle(e, env, fn)}
}

func (m *Machine) evalSingle(e ast.Expr, env *env, fn *source.Function) Value {
	m.tick(1)
	switch ex := e.(type) {
	case *ast.BasicLit:
		return m.evalLit(ex)
	case *ast.Ident:
		return m.evalIdent(ex, env)
	case *ast.ParenExpr:
		return m.eval(ex.X, env, fn)
	case *ast.BinaryExpr:
		return m.evalBinary(ex, env, fn)
	case *ast.UnaryExpr:
		return m.evalUnary(ex, env, fn)
	case *ast.StarExpr:
		// Reference semantics: *p is p for struct references.
		v := m.eval(ex.X, env, fn)
		return v
	case *ast.IndexExpr:
		return m.evalIndex(ex, env, fn)
	case *ast.SliceExpr:
		return m.evalSliceExpr(ex, env, fn)
	case *ast.SelectorExpr:
		return m.evalSelector(ex, env, fn)
	case *ast.CompositeLit:
		return m.evalComposite(ex, env, fn)
	case *ast.FuncLit:
		return &Func{Name: "closure", decl: funcLit{ex}, env: env}
	case *ast.CallExpr:
		vals := m.evalCallMulti(ex, env, fn)
		if len(vals) != 1 {
			fail("call yields %d values where one is required", len(vals))
		}
		return vals[0]
	default:
		fail("unsupported expression %T", e)
		return nil
	}
}

func (m *Machine) evalLit(lit *ast.BasicLit) Value {
	v, msg := parseLit(lit)
	if msg != "" {
		fail("%s", msg)
	}
	return v
}

func (m *Machine) evalIdent(id *ast.Ident, env *env) Value {
	switch id.Name {
	case "true":
		return true
	case "false":
		return false
	case "nil":
		return nil
	}
	if c := env.lookup(id.Name); c != nil {
		m.load(c.addr)
		return c.val
	}
	if f := m.prog.Func(id.Name); f != nil {
		return &Func{Name: id.Name, decl: funcDecl{f.Decl}}
	}
	if in, ok := m.intrinsics[id.Name]; ok {
		name := in.Name
		return &Func{Name: name, decl: nil} // resolved at call time
	}
	fail("undefined identifier %q", id.Name)
	return nil
}

func (m *Machine) evalBinary(ex *ast.BinaryExpr, env *env, fn *source.Function) Value {
	if ex.Op == token.LAND || ex.Op == token.LOR {
		l, err := truthy(m.eval(ex.X, env, fn))
		if err != nil {
			fail("%v", err)
		}
		if ex.Op == token.LAND && !l {
			return false
		}
		if ex.Op == token.LOR && l {
			return true
		}
		r, err := truthy(m.eval(ex.Y, env, fn))
		if err != nil {
			fail("%v", err)
		}
		return r
	}
	a := m.eval(ex.X, env, fn)
	b := m.eval(ex.Y, env, fn)
	return m.binop(ex.Op, a, b)
}

func (m *Machine) binop(op token.Token, a, b Value) Value {
	switch op {
	case token.EQL:
		return equalValues(a, b)
	case token.NEQ:
		return !equalValues(a, b)
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return intOp(op, x, y)
		case float64:
			return floatOp(op, float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return floatOp(op, x, y)
		case int64:
			return floatOp(op, x, float64(y))
		}
	case string:
		if y, ok := b.(string); ok {
			return stringOp(op, x, y)
		}
	}
	fail("invalid operands for %s: %s and %s", op, formatValue(a), formatValue(b))
	return nil
}

func intOp(op token.Token, x, y int64) Value {
	switch op {
	case token.ADD:
		return x + y
	case token.SUB:
		return x - y
	case token.MUL:
		return x * y
	case token.QUO:
		if y == 0 {
			fail("integer division by zero")
		}
		return x / y
	case token.REM:
		if y == 0 {
			fail("integer modulo by zero")
		}
		return x % y
	case token.AND:
		return x & y
	case token.OR:
		return x | y
	case token.XOR:
		return x ^ y
	case token.SHL:
		return x << uint(y)
	case token.SHR:
		return x >> uint(y)
	case token.LSS:
		return x < y
	case token.LEQ:
		return x <= y
	case token.GTR:
		return x > y
	case token.GEQ:
		return x >= y
	}
	fail("unsupported int operator %s", op)
	return nil
}

func floatOp(op token.Token, x, y float64) Value {
	switch op {
	case token.ADD:
		return x + y
	case token.SUB:
		return x - y
	case token.MUL:
		return x * y
	case token.QUO:
		return x / y
	case token.LSS:
		return x < y
	case token.LEQ:
		return x <= y
	case token.GTR:
		return x > y
	case token.GEQ:
		return x >= y
	}
	fail("unsupported float operator %s", op)
	return nil
}

func stringOp(op token.Token, x, y string) Value {
	switch op {
	case token.ADD:
		return x + y
	case token.LSS:
		return x < y
	case token.LEQ:
		return x <= y
	case token.GTR:
		return x > y
	case token.GEQ:
		return x >= y
	}
	fail("unsupported string operator %s", op)
	return nil
}

func (m *Machine) evalUnary(ex *ast.UnaryExpr, env *env, fn *source.Function) Value {
	switch ex.Op {
	case token.AND:
		// &x / &T{...}: reference semantics make this the value itself.
		return m.eval(ex.X, env, fn)
	case token.SUB:
		v := m.eval(ex.X, env, fn)
		switch x := v.(type) {
		case int64:
			return -x
		case float64:
			return -x
		}
		fail("cannot negate %s", formatValue(v))
	case token.ADD:
		return m.eval(ex.X, env, fn)
	case token.NOT:
		v, err := truthy(m.eval(ex.X, env, fn))
		if err != nil {
			fail("%v", err)
		}
		return !v
	case token.XOR:
		return ^toInt(m.eval(ex.X, env, fn))
	}
	fail("unsupported unary operator %s", ex.Op)
	return nil
}

func (m *Machine) evalIndex(ex *ast.IndexExpr, env *env, fn *source.Function) Value {
	base := m.eval(ex.X, env, fn)
	idx := m.eval(ex.Index, env, fn)
	switch b := base.(type) {
	case *Slice:
		i := toInt(idx)
		if i < 0 || int(i) >= len(b.Elems) {
			fail("slice index %d out of range [0:%d)", i, len(b.Elems))
		}
		m.load(b.base + uint64(i))
		return b.Elems[i]
	case *Map:
		if b.M == nil {
			return nil
		}
		if a, ok := b.addrs[idx]; ok {
			m.load(a)
		}
		v, ok := b.M[idx]
		if !ok {
			return mapZero(v)
		}
		return v
	case string:
		i := toInt(idx)
		if i < 0 || int(i) >= len(b) {
			fail("string index out of range")
		}
		return int64(b[i])
	case nil:
		fail("index of nil value")
	}
	fail("cannot index %s", formatValue(base))
	return nil
}

// mapZero guesses a zero value for missing map entries; without static
// types the interpreter returns int64(0), the dominant case in the
// corpus (counting maps).
func mapZero(_ Value) Value { return int64(0) }

func (m *Machine) evalSliceExpr(ex *ast.SliceExpr, env *env, fn *source.Function) Value {
	base := m.eval(ex.X, env, fn)
	lo, hi := int64(0), int64(-1)
	if ex.Low != nil {
		lo = toInt(m.eval(ex.Low, env, fn))
	}
	if ex.High != nil {
		hi = toInt(m.eval(ex.High, env, fn))
	}
	switch b := base.(type) {
	case *Slice:
		if hi < 0 {
			hi = int64(len(b.Elems))
		}
		if lo < 0 || hi > int64(len(b.Elems)) || lo > hi {
			fail("slice bounds out of range [%d:%d] with length %d", lo, hi, len(b.Elems))
		}
		return &Slice{Elems: b.Elems[lo:hi], base: b.base + uint64(lo)}
	case string:
		if hi < 0 {
			hi = int64(len(b))
		}
		if lo < 0 || hi > int64(len(b)) || lo > hi {
			fail("string bounds out of range")
		}
		return b[lo:hi]
	}
	fail("cannot slice %s", formatValue(base))
	return nil
}

func (m *Machine) evalSelector(ex *ast.SelectorExpr, env *env, fn *source.Function) Value {
	// Package-qualified intrinsic reference (math.Sqrt as a value).
	if id, ok := ex.X.(*ast.Ident); ok && env.lookup(id.Name) == nil && m.prog.Func(id.Name) == nil {
		qual := id.Name + "." + ex.Sel.Name
		if _, ok := m.intrinsics[qual]; ok {
			return &Func{Name: qual}
		}
	}
	base := m.eval(ex.X, env, fn)
	st, ok := base.(*Struct)
	if !ok {
		fail("cannot select %s from %s", ex.Sel.Name, formatValue(base))
	}
	if v, ok := st.Get(ex.Sel.Name); ok {
		m.load(st.fieldAddr(ex.Sel.Name))
		return v
	}
	// Method value: bind the receiver.
	if mf := m.prog.Func(st.Type + "." + ex.Sel.Name); mf != nil {
		return &Func{Name: mf.Name, decl: funcDecl{mf.Decl}, recv: st}
	}
	fail("type %s has no field or method %s", st.Type, ex.Sel.Name)
	return nil
}

func (m *Machine) evalComposite(ex *ast.CompositeLit, env *env, fn *source.Function) Value {
	switch t := ex.Type.(type) {
	case *ast.Ident:
		fields, ok := m.structTypes[t.Name]
		if !ok {
			fail("unknown composite type %s", t.Name)
		}
		// Fields start untyped nil: arithmetic on a field that was never
		// set fails loudly rather than computing with a wrong zero.
		st := m.newStruct(t.Name, fields)
		for i, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				id, ok := kv.Key.(*ast.Ident)
				if !ok {
					fail(errStructKey)
				}
				key := id.Name
				st.fields[key] = m.eval(kv.Value, env, fn)
				m.store(st.fieldAddr(key))
				continue
			}
			if i >= len(fields) {
				fail("too many values in %s literal", t.Name)
			}
			st.fields[fields[i]] = m.eval(el, env, fn)
			m.store(st.fieldAddr(fields[i]))
		}
		return st
	case *ast.ArrayType:
		elems := make([]Value, 0, len(ex.Elts))
		for _, el := range ex.Elts {
			elems = append(elems, m.eval(el, env, fn))
		}
		s := &Slice{Elems: elems, base: m.alloc(len(elems) + 1)}
		return s
	case *ast.MapType:
		mp := &Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)}
		for _, el := range ex.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				fail("map literal requires key:value")
			}
			k := m.eval(kv.Key, env, fn)
			mp.M[k] = m.eval(kv.Value, env, fn)
			mp.addrs[k] = m.alloc(1)
		}
		return mp
	}
	fail("unsupported composite literal type %T", ex.Type)
	return nil
}

// lvalue resolves an assignable expression to getter/setter closures.
func (m *Machine) lvalue(e ast.Expr, env *env, fn *source.Function) (func() Value, func(Value)) {
	switch ex := e.(type) {
	case *ast.Ident:
		if ex.Name == "_" {
			return func() Value { return nil }, func(Value) {}
		}
		c := env.lookup(ex.Name)
		if c == nil {
			fail("assignment to undefined variable %q", ex.Name)
		}
		return func() Value { m.load(c.addr); return c.val },
			func(v Value) { c.val = v; m.store(c.addr) }
	case *ast.ParenExpr:
		return m.lvalue(ex.X, env, fn)
	case *ast.StarExpr:
		return m.lvalue(ex.X, env, fn)
	case *ast.IndexExpr:
		base := m.eval(ex.X, env, fn)
		idx := m.eval(ex.Index, env, fn)
		switch b := base.(type) {
		case *Slice:
			i := toInt(idx)
			if i < 0 || int(i) >= len(b.Elems) {
				fail("slice index %d out of range [0:%d)", i, len(b.Elems))
			}
			return func() Value { m.load(b.base + uint64(i)); return b.Elems[i] },
				func(v Value) { b.Elems[i] = v; m.store(b.base + uint64(i)) }
		case *Map:
			if b.M == nil {
				fail("assignment to entry of nil map")
			}
			return func() Value {
					if a, ok := b.addrs[idx]; ok {
						m.load(a)
					}
					v, ok := b.M[idx]
					if !ok {
						return mapZero(nil)
					}
					return v
				},
				func(v Value) {
					if _, ok := b.addrs[idx]; !ok {
						b.addrs[idx] = m.alloc(1)
					}
					b.M[idx] = v
					m.store(b.addrs[idx])
				}
		default:
			fail("cannot index-assign %s", formatValue(base))
		}
	case *ast.SelectorExpr:
		base := m.eval(ex.X, env, fn)
		st, ok := base.(*Struct)
		if !ok {
			fail("cannot assign field %s of %s", ex.Sel.Name, formatValue(base))
		}
		name := ex.Sel.Name
		if _, ok := st.fields[name]; !ok {
			fail("type %s has no field %s", st.Type, name)
		}
		return func() Value { m.load(st.fieldAddr(name)); return st.fields[name] },
			func(v Value) { st.fields[name] = v; m.store(st.fieldAddr(name)) }
	}
	fail("unsupported assignment target %T", e)
	return nil, nil
}

// evalCallMulti evaluates a call expression, returning all results.
func (m *Machine) evalCallMulti(call *ast.CallExpr, env *env, fn *source.Function) []Value {
	m.tick(1)
	// Builtins and conversions by identifier.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if vals, handled := m.builtinCall(id.Name, call, env, fn); handled {
			return vals
		}
	}
	// Qualified intrinsics: pkg.Fn(...)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && env.lookup(id.Name) == nil && m.prog.Func(id.Name) == nil {
			qual := id.Name + "." + sel.Sel.Name
			if in, ok := m.intrinsics[qual]; ok {
				return []Value{m.callIntrinsic(in, m.evalArgs(call.Args, env, fn))}
			}
			fail("unknown qualified call %s", qual)
		}
		// Method call.
		base := m.eval(sel.X, env, fn)
		st, ok := base.(*Struct)
		if !ok {
			fail("cannot call method %s on %s", sel.Sel.Name, formatValue(base))
		}
		mf := m.prog.Func(st.Type + "." + sel.Sel.Name)
		if mf == nil {
			// Maybe a func-typed field.
			if fv, ok := st.Get(sel.Sel.Name); ok {
				if f, ok := fv.(*Func); ok {
					return m.callFuncValue(f, m.evalArgs(call.Args, env, fn))
				}
			}
			fail("type %s has no method %s", st.Type, sel.Sel.Name)
		}
		return m.callFunction(mf, st, m.evalArgs(call.Args, env, fn))
	}
	// Plain identifier: local func value, program function, intrinsic.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if c := env.lookup(id.Name); c != nil {
			f, ok := c.val.(*Func)
			if !ok {
				fail("%q is not a function", id.Name)
			}
			m.load(c.addr)
			return m.callFuncValue(f, m.evalArgs(call.Args, env, fn))
		}
		if pf := m.prog.Func(id.Name); pf != nil {
			return m.callFunction(pf, nil, m.evalArgs(call.Args, env, fn))
		}
		if in, ok := m.intrinsics[id.Name]; ok {
			return []Value{m.callIntrinsic(in, m.evalArgs(call.Args, env, fn))}
		}
		fail("undefined function %q", id.Name)
	}
	// Arbitrary callable expression (func literal, returned func).
	v := m.eval(call.Fun, env, fn)
	f, ok := v.(*Func)
	if !ok {
		fail("cannot call %s", formatValue(v))
	}
	return m.callFuncValue(f, m.evalArgs(call.Args, env, fn))
}

func (m *Machine) evalArgs(args []ast.Expr, env *env, fn *source.Function) []Value {
	if len(args) == 1 {
		if call, ok := args[0].(*ast.CallExpr); ok {
			return m.evalCallMulti(call, env, fn)
		}
	}
	out := make([]Value, len(args))
	for i, a := range args {
		out[i] = m.eval(a, env, fn)
	}
	return out
}

func (m *Machine) callIntrinsic(in *Intrinsic, args []Value) Value {
	m.tick(in.Cost)
	return in.Fn(args)
}

func (m *Machine) callFuncValue(f *Func, args []Value) []Value {
	switch d := f.decl.(type) {
	case funcDecl:
		pf := m.prog.Func(source.FuncName(d.d))
		if pf == nil {
			fail("dangling function value %s", f.Name)
		}
		return m.callFunction(pf, f.recv, args)
	case funcLit:
		return m.callClosure(f, d.l, args)
	default:
		if in, ok := m.intrinsics[f.Name]; ok {
			return []Value{m.callIntrinsic(in, args)}
		}
		fail("cannot call %s", f.Name)
		return nil
	}
}

// callClosure invokes a function literal with its captured
// environment. Its statements are attributed to the lexically
// enclosing function, which numbers them as its own.
func (m *Machine) callClosure(f *Func, lit *ast.FuncLit, args []Value) []Value {
	return m.call(f.Name, lit.Type, lit.Body, newEnv(f.env), m.enclosingFunction(lit), args)
}

func (m *Machine) enclosingFunction(lit *ast.FuncLit) *source.Function {
	for _, f := range m.prog.Functions() {
		if lit.Pos() >= f.Decl.Pos() && lit.End() <= f.Decl.End() {
			return f
		}
	}
	return nil
}

// builtinCall implements the supported builtins; the bool result
// reports whether name was handled. The helpers it shares with the VM
// (builtins.go) raise the same failures on both engines.
func (m *Machine) builtinCall(name string, call *ast.CallExpr, env *env, fn *source.Function) ([]Value, bool) {
	switch name {
	case "len", "cap", "int", "int64", "byte", "rune", "int32", "float64", "string":
		needArgs(name, len(call.Args), 1)
		v := m.eval(call.Args[0], env, fn)
		switch name {
		case "len":
			return []Value{lenOf(v)}, true
		case "cap":
			return []Value{capOf(v)}, true
		case "float64":
			return []Value{toFloat(v)}, true
		case "string":
			return []Value{toString(v)}, true
		}
		return []Value{toInt(v)}, true
	case "append":
		ns := m.appendSlice(m.evalArgs(call.Args, env, fn))
		for i := range ns.Elems {
			m.store(ns.base + uint64(i))
		}
		return []Value{ns}, true
	case "copy":
		dst, n := copySlices(m.evalArgs(call.Args, env, fn))
		for i := 0; i < n; i++ {
			m.store(dst.base + uint64(i))
		}
		return []Value{int64(n)}, true
	case "delete":
		deleteEntry(m.evalArgs(call.Args, env, fn))
		return nil, true
	case "make":
		return []Value{m.makeValue(call, env, fn)}, true
	case "new":
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if fields, ok := m.structTypes[id.Name]; ok {
					return []Value{m.newStruct(id.Name, fields)}, true
				}
			}
		}
		fail("unsupported new()")
	case "min", "max":
		return []Value{minMax(name == "max", m.evalArgs(call.Args, env, fn))}, true
	case "println", "print":
		m.println(m.evalArgs(call.Args, env, fn))
		m.tick(10)
		return nil, true
	case "panic":
		programPanic(m.evalArgs(call.Args, env, fn))
	}
	return nil, false
}

func (m *Machine) makeValue(call *ast.CallExpr, env *env, fn *source.Function) Value {
	if len(call.Args) == 0 {
		fail("make requires a type")
	}
	switch call.Args[0].(type) {
	case *ast.ArrayType:
		n := int64(0)
		if len(call.Args) > 1 {
			n = toInt(m.eval(call.Args[1], env, fn))
		}
		return m.makeSlice(n)
	case *ast.MapType:
		return &Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)}
	}
	fail("unsupported make()")
	return nil
}
