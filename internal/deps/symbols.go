// Package deps implements Patty's static data-dependence analysis:
// lexical symbol resolution, per-statement read/write sets, def-use
// flows and loop-carried dependence detection (including affine array
// index distances and reduction idioms).
//
// Together with the CFG, the call graph and the dynamic profile this
// forms the semantic model of paper §2.1. The analysis is *optimistic*
// in the paper's sense: calls without an intra-program summary are
// assumed side-effect free, and non-affine subscripts are left to the
// dynamic dependence profiler to confirm or refute.
package deps

import (
	"fmt"
	"go/ast"
	"go/token"

	"patty/internal/source"
)

// SymKind classifies resolved symbols.
type SymKind int

const (
	// LocalSym is a function-local variable.
	LocalSym SymKind = iota
	// ParamSym is a parameter or named result.
	ParamSym
	// ReceiverSym is a method receiver.
	ReceiverSym
	// GlobalSym is a package-level variable.
	GlobalSym
	// FuncSym is a declared function or method name.
	FuncSym
)

// String returns a short kind name.
func (k SymKind) String() string {
	switch k {
	case LocalSym:
		return "local"
	case ParamSym:
		return "param"
	case ReceiverSym:
		return "recv"
	case GlobalSym:
		return "global"
	case FuncSym:
		return "func"
	default:
		return fmt.Sprintf("sym(%d)", int(k))
	}
}

// Symbol is one resolved variable (or function) identity. Two idents
// denote the same variable iff they resolve to the same *Symbol.
type Symbol struct {
	Name string
	Kind SymKind
	// Decl is the declaring position, distinguishing shadowed names.
	Decl token.Pos
}

func (s *Symbol) String() string { return s.Name }

// Resolution maps every identifier in a function to its symbol.
type Resolution struct {
	Fn   *source.Function
	uses map[*ast.Ident]*Symbol
	// declStmt records, for locals, the statement that declared them
	// (nil for params/receivers/globals); loop analysis uses it to
	// decide iteration-privacy.
	declStmt map[*Symbol]ast.Stmt
	declared []*Symbol
	complete bool
}

// SymbolOf returns the symbol an identifier resolves to, or nil for
// identifiers that are not variables of the analyzed program (types,
// package names, imported functions, field names in selectors and
// struct literals).
func (r *Resolution) SymbolOf(id *ast.Ident) *Symbol { return r.uses[id] }

// DeclStmt returns the statement that declared sym (nil for
// non-locals).
func (r *Resolution) DeclStmt(sym *Symbol) ast.Stmt { return r.declStmt[sym] }

// Declared returns the function's receivers, parameters, named
// results and locals, those of its function literals included, in the
// order the resolver declared them: the signature left to right, then
// the body in evaluation order (an assignment's right-hand side before
// the names it declares). `_` declares nothing.
func (r *Resolution) Declared() []*Symbol { return r.declared }

// Complete reports whether the resolver modeled every construct of the
// function. It does not model type switches, select statements, local
// type declarations, or keyed composite literals whose type it cannot
// see; identifiers inside those may be left unresolved.
func (r *Resolution) Complete() bool { return r.complete }

// scope is one lexical scope level.
type scope struct {
	parent *scope
	names  map[string]*Symbol
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: make(map[string]*Symbol)}
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.names[name]; ok {
			return sym
		}
	}
	return nil
}

func (s *scope) define(sym *Symbol) { s.names[sym.Name] = sym }

// resolver walks the AST maintaining the scope stack.
type resolver struct {
	res     *Resolution
	structs map[string]bool // the program's top-level struct type names
	curStmt ast.Stmt
}

// Resolve computes the symbol resolution of fn within its program.
// Package-level variables and function names of the whole program are
// visible as globals.
func Resolve(fn *source.Function) *Resolution {
	res := &Resolution{
		Fn:       fn,
		uses:     make(map[*ast.Ident]*Symbol),
		declStmt: make(map[*Symbol]ast.Stmt),
		complete: true,
	}
	r := &resolver{res: res, structs: make(map[string]bool)}
	globals := newScope(nil)
	for _, file := range fn.Prog.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						if d.Tok != token.VAR {
							continue
						}
						for _, name := range sp.Names {
							globals.define(&Symbol{Name: name.Name, Kind: GlobalSym, Decl: name.Pos()})
						}
					case *ast.TypeSpec:
						if _, ok := sp.Type.(*ast.StructType); ok {
							r.structs[sp.Name.Name] = true
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil {
					globals.define(&Symbol{Name: d.Name.Name, Kind: FuncSym, Decl: d.Name.Pos()})
				}
			}
		}
	}

	fnScope := newScope(globals)
	r.params(fn.Decl.Recv, ReceiverSym, fnScope)
	r.params(fn.Decl.Type.Params, ParamSym, fnScope)
	r.params(fn.Decl.Type.Results, ParamSym, fnScope)
	// The body shares the parameters' scope, as in Go: `a, x := …`
	// with a parameter x assigns the parameter.
	r.stmts(fn.Decl.Body.List, fnScope)
	return res
}

// params declares the names of a receiver, parameter or result list in
// sc; their types resolve in the enclosing scope.
func (r *resolver) params(fl *ast.FieldList, kind SymKind, sc *scope) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		r.expr(f.Type, sc.parent)
		for _, name := range f.Names {
			r.declare(name, kind, sc)
		}
	}
}

// declare gives id a fresh symbol of the given kind in sc; `_`
// declares nothing and yields nil.
func (r *resolver) declare(id *ast.Ident, kind SymKind, sc *scope) *Symbol {
	if id.Name == "_" {
		return nil
	}
	sym := &Symbol{Name: id.Name, Kind: kind, Decl: id.Pos()}
	sc.define(sym)
	r.res.uses[id] = sym
	r.res.declared = append(r.res.declared, sym)
	return sym
}

// define declares a local variable of the current statement.
func (r *resolver) define(id *ast.Ident, sc *scope) {
	if sym := r.declare(id, LocalSym, sc); sym != nil {
		r.res.declStmt[sym] = r.curStmt
	}
}

// block resolves a statement block in a fresh child scope.
func (r *resolver) block(b *ast.BlockStmt, parent *scope) {
	r.stmts(b.List, newScope(parent))
}

func (r *resolver) stmts(list []ast.Stmt, sc *scope) {
	for _, s := range list {
		r.stmt(s, sc)
	}
}

func (r *resolver) stmt(s ast.Stmt, sc *scope) {
	prev := r.curStmt
	r.curStmt = s
	defer func() { r.curStmt = prev }()
	switch st := s.(type) {
	case nil, *ast.BranchStmt, *ast.EmptyStmt:
		// no identifiers (a branch label is not a variable)
	case *ast.BlockStmt:
		r.block(st, sc)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				// A local type: the struct-literal rule of key knows
				// only top-level struct types.
				r.res.complete = false
				continue
			}
			r.expr(vs.Type, sc)
			r.exprs(vs.Values, sc)
			for _, name := range vs.Names {
				r.define(name, sc)
			}
		}
	case *ast.AssignStmt:
		r.exprs(st.Rhs, sc)
		for _, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if st.Tok != token.DEFINE || !ok {
				r.expr(lhs, sc)
				continue
			}
			// Go redeclaration rule: := reuses a variable already
			// declared in the same scope.
			if sym, exists := sc.names[id.Name]; exists {
				r.res.uses[id] = sym
				continue
			}
			r.define(id, sc)
		}
	case *ast.ExprStmt:
		r.expr(st.X, sc)
	case *ast.IncDecStmt:
		r.expr(st.X, sc)
	case *ast.ReturnStmt:
		r.exprs(st.Results, sc)
	case *ast.IfStmt:
		inner := newScope(sc)
		r.stmt(st.Init, inner)
		r.expr(st.Cond, inner)
		r.block(st.Body, inner)
		r.stmt(st.Else, inner)
	case *ast.ForStmt:
		inner := newScope(sc)
		r.stmt(st.Init, inner)
		r.expr(st.Cond, inner)
		r.stmt(st.Post, inner)
		r.block(st.Body, inner)
	case *ast.RangeStmt:
		inner := newScope(sc)
		r.expr(st.X, inner)
		if st.Tok == token.DEFINE {
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					r.define(id, inner)
				}
			}
		} else {
			r.expr(st.Key, inner)
			r.expr(st.Value, inner)
		}
		r.block(st.Body, inner)
	case *ast.SwitchStmt:
		inner := newScope(sc)
		r.stmt(st.Init, inner)
		r.expr(st.Tag, inner)
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CaseClause)
			caseScope := newScope(inner)
			r.exprs(clause.List, caseScope)
			r.stmts(clause.Body, caseScope)
		}
	case *ast.LabeledStmt:
		r.stmt(st.Stmt, sc)
	case *ast.GoStmt:
		r.expr(st.Call, sc)
	case *ast.DeferStmt:
		r.expr(st.Call, sc)
	case *ast.SendStmt:
		r.expr(st.Chan, sc)
		r.expr(st.Value, sc)
	default:
		// *ast.TypeSwitchStmt, *ast.SelectStmt: not modeled.
		r.res.complete = false
	}
}

func (r *resolver) exprs(list []ast.Expr, sc *scope) {
	for _, e := range list {
		r.expr(e, sc)
	}
}

func (r *resolver) expr(e ast.Expr, sc *scope) {
	switch ex := e.(type) {
	case nil, *ast.BasicLit:
	case *ast.Ident:
		if ex.Name == "_" {
			return
		}
		if sym := sc.lookup(ex.Name); sym != nil {
			r.res.uses[ex] = sym
		}
	case *ast.BinaryExpr:
		r.expr(ex.X, sc)
		r.expr(ex.Y, sc)
	case *ast.UnaryExpr:
		r.expr(ex.X, sc)
	case *ast.ParenExpr:
		r.expr(ex.X, sc)
	case *ast.StarExpr:
		r.expr(ex.X, sc)
	case *ast.IndexExpr:
		r.expr(ex.X, sc)
		r.expr(ex.Index, sc)
	case *ast.IndexListExpr:
		r.expr(ex.X, sc)
		r.exprs(ex.Indices, sc)
	case *ast.SliceExpr:
		r.expr(ex.X, sc)
		r.expr(ex.Low, sc)
		r.expr(ex.High, sc)
		r.expr(ex.Max, sc)
	case *ast.SelectorExpr:
		// Only the base resolves; the field name is not a variable.
		r.expr(ex.X, sc)
	case *ast.CallExpr:
		r.expr(ex.Fun, sc)
		r.exprs(ex.Args, sc)
	case *ast.CompositeLit:
		r.expr(ex.Type, sc)
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				r.key(kv.Key, ex.Type, sc)
				el = kv.Value
			}
			r.expr(el, sc)
		}
	case *ast.TypeAssertExpr:
		r.expr(ex.X, sc)
		r.expr(ex.Type, sc)
	case *ast.FuncLit:
		// Free variables inside the literal resolve against the
		// enclosing scope; its parameters, named results and body
		// share one fresh scope.
		inner := newScope(sc)
		r.params(ex.Type.Params, LocalSym, inner)
		r.params(ex.Type.Results, LocalSym, inner)
		r.stmts(ex.Body.List, inner)
	// Type expressions: an array length may name a local constant.
	case *ast.ArrayType:
		r.expr(ex.Len, sc)
		r.expr(ex.Elt, sc)
	case *ast.MapType:
		r.expr(ex.Key, sc)
		r.expr(ex.Value, sc)
	case *ast.ChanType:
		r.expr(ex.Value, sc)
	case *ast.Ellipsis:
		r.expr(ex.Elt, sc)
	case *ast.FuncType:
		r.fieldTypes(ex.Params, sc)
		r.fieldTypes(ex.Results, sc)
	case *ast.StructType:
		r.fieldTypes(ex.Fields, sc)
	case *ast.InterfaceType:
		r.fieldTypes(ex.Methods, sc)
	default:
		r.res.complete = false
	}
}

// key resolves one composite-literal key. A struct literal's key is a
// field name, not a variable; as in the interpreter's compileComposite,
// a literal whose type is the name of a top-level struct type is a
// struct literal. An array, slice or map literal's key is an
// expression. When the literal's type is elided or qualified the
// resolver cannot tell which, and leaves the key unresolved.
func (r *resolver) key(k, typ ast.Expr, sc *scope) {
	switch t := typ.(type) {
	case *ast.Ident:
		if r.structs[t.Name] {
			return
		}
	case *ast.ArrayType, *ast.MapType:
	default:
		r.res.complete = false
		return
	}
	r.expr(k, sc)
}

// fieldTypes resolves the types of a field list; the names it lists
// (struct fields, a function type's parameters) are not variables of
// the function.
func (r *resolver) fieldTypes(fl *ast.FieldList, sc *scope) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		r.expr(f.Type, sc)
	}
}
