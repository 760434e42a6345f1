package interp

import (
	"go/ast"
	"go/token"

	"patty/internal/deps"
	"patty/internal/source"
)

// pkgVar is one initialization step of the package: one name of a
// var or const declaration, or the names a multi-value initializer
// (`var a, b = f()`) sets together, with the initializer, nil for the
// zero value of typ.
type pkgVar struct {
	names []*ast.Ident
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

// initOrder orders the package-level consts and vars by Go's rule:
// each step initializes the earliest in declaration order whose
// initializer depends on no uninitialized variable, constants listed
// first, since Go evaluates them before any variable. An initializer
// depends on the package-level variables it refers to, directly or
// through the functions and methods it refers to, as deps resolves the
// initializers and the function bodies; a selector x.M refers to every
// method named M. Constants refer to no variable, so they initialize
// in declaration order. The names of a multi-value initializer
// initialize in one step. Go rejects an initialization cycle; here its
// variables initialize in declaration order, and the first to read an
// uninitialized one fails.
func (m *Machine) initOrder() []pkgVar {
	var consts, vars []pkgVar
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
				steps := &vars
				if gd.Tok == token.CONST {
					steps = &consts
				}
				if len(vs.Names) > 1 && len(vs.Values) == 1 {
					*steps = append(*steps, pkgVar{names: vs.Names, value: vs.Values[0], typ: vs.Type})
					continue
				}
				for i, name := range vs.Names {
					v := pkgVar{names: []*ast.Ident{name}, typ: vs.Type}
					if i < len(vs.Values) {
						v.value = vs.Values[i]
					}
					*steps = append(*steps, v)
				}
			}
		}
	}
	steps := append(append([]pkgVar{}, consts...), vars...) // not nil: packageVars keeps an empty order too
	if len(steps) < 2 {
		return steps
	}
	res := deps.ResolvePackage(m.prog)
	methods := make(map[string][]*source.Function)
	for _, fn := range m.prog.Functions() {
		if fn.Decl.Recv != nil {
			methods[fn.Decl.Name.Name] = append(methods[fn.Decl.Name.Name], fn)
		}
	}
	needs := make([]map[string]bool, len(steps))
	for i, v := range steps {
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
	order := make([]pkgVar, 0, len(steps))
	done := make([]bool, len(steps))
	for len(order) < len(steps) {
		next := -1
		for i := range steps {
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
		for _, name := range steps[next].names {
			inited[name.Name] = true
		}
		order = append(order, steps[next])
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
