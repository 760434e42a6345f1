package interp

import (
	"go/ast"

	"patty/internal/deps"
	"patty/internal/source"
)

// pkgVar is one name of a package-level var or const declaration, with
// its initializer, nil for the zero value of typ.
type pkgVar struct {
	name  *ast.Ident
	value ast.Expr
	typ   ast.Expr
}

// packageVars returns the program's package-level vars and consts in
// initialization order, computing it on the first call.
func (m *Machine) packageVars() []pkgVar {
	if m.inits == nil {
		m.inits = m.initOrder()
	}
	return m.inits
}

// initOrder orders the package-level vars and consts by Go's rule: each
// step initializes the earliest in declaration order whose initializer
// depends on no uninitialized variable. An initializer depends on the
// package-level variables it refers to, directly or through the
// functions and methods it refers to, as deps resolves the
// initializers and the function bodies; a selector x.M refers to every
// method named M. Constants refer to no variable, so they initialize in
// declaration order. Go rejects an initialization cycle; here its
// variables initialize in declaration order, and the first to read an
// uninitialized one fails.
func (m *Machine) initOrder() []pkgVar {
	vars := []pkgVar{} // not nil: packageVars keeps an empty order too
	for _, file := range m.prog.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := pkgVar{name: name, typ: vs.Type}
					if i < len(vs.Values) {
						v.value = vs.Values[i]
					}
					vars = append(vars, v)
				}
			}
		}
	}
	if len(vars) < 2 {
		return vars
	}
	res := deps.ResolvePackage(m.prog)
	methods := make(map[string][]*source.Function)
	for _, fn := range m.prog.Functions() {
		if fn.Decl.Recv != nil {
			methods[fn.Decl.Name.Name] = append(methods[fn.Decl.Name.Name], fn)
		}
	}
	needs := make([]map[string]bool, len(vars))
	for i, v := range vars {
		needs[i] = m.references(v.value, res, methods)
	}
	inited := make(map[string]bool)
	ready := func(i int) bool {
		for name := range needs[i] {
			if !inited[name] {
				return false
			}
		}
		return true
	}
	order := make([]pkgVar, 0, len(vars))
	done := make([]bool, len(vars))
	for len(order) < len(vars) {
		next := -1
		for i := range vars {
			if !done[i] && ready(i) {
				next = i
				break
			}
		}
		if next < 0 { // a cycle: the earliest left
			for next = 0; done[next]; next++ {
			}
		}
		done[next] = true
		inited[vars[next].name.Name] = true
		order = append(order, vars[next])
	}
	return order
}

// references returns the names of the package-level variables that e
// refers to, as res resolves it, directly or through the program
// functions and methods it refers to.
func (m *Machine) references(e ast.Expr, res *deps.Resolution, methods map[string][]*source.Function) map[string]bool {
	out := make(map[string]bool)
	seen := make(map[*source.Function]bool)
	var walk func(n ast.Node, res *deps.Resolution)
	visit := func(fn *source.Function) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			walk(fn.Decl.Body, m.function(fn).res)
		}
	}
	walk = func(n ast.Node, res *deps.Resolution) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if sym := res.SymbolOf(x); sym != nil && sym.Kind == deps.GlobalSym {
					out[sym.Name] = true
				} else if sym != nil && sym.Kind == deps.FuncSym {
					visit(m.prog.Func(sym.Name))
				}
			case *ast.SelectorExpr:
				for _, fn := range methods[x.Sel.Name] {
					visit(fn)
				}
			}
			return true
		})
	}
	if e != nil {
		walk(e, res)
	}
	return out
}
