package deps

import (
	"go/ast"
	"go/token"
	"strconv"
)

// AccessKind distinguishes reads from writes.
type AccessKind int

const (
	// ReadAccess observes a value.
	ReadAccess AccessKind = iota
	// WriteAccess stores a value.
	WriteAccess
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == WriteAccess {
		return "write"
	}
	return "read"
}

// Index describes the subscript of an element access when it is an
// affine function of a loop variable (a[i], a[i+1], a[i-2]); the PLDD
// rule uses the distance between affine subscripts to decide whether
// an array dependence is loop-carried.
type Index struct {
	Var    *Symbol // the subscript variable
	Offset int     // constant addend
	Affine bool    // subscript is Var+Offset; false means "unknown subscript"
}

// Access is one read or write of a symbol by a statement.
type Access struct {
	Sym  *Symbol
	Kind AccessKind
	// Field is the selector name for field accesses (x.Field); ""
	// for whole-variable accesses.
	Field string
	// Elem marks an element access (index or field), i.e. the
	// container itself was not overwritten wholesale.
	Elem bool
	// Index is set for subscripted accesses.
	Index *Index
	// Pos locates the access for reports.
	Pos token.Pos
}

// EffectOracle answers what a call expression may read and write
// beyond its syntactic arguments. The callgraph package implements it
// with interprocedural summaries; a nil oracle is the fully optimistic
// assumption (calls are pure), matching the paper's optimistic
// analysis defaults.
type EffectOracle interface {
	// CallEffects returns extra accesses performed by the call. The
	// arguments have already been recorded as reads by the walker.
	CallEffects(call *ast.CallExpr, r *Resolution) []Access
}

// Accesses computes the read/write set of one statement (including its
// nested statements when s is compound — callers that want top-level
// granularity pass top-level body statements). oracle may be nil.
func Accesses(r *Resolution, s ast.Stmt, oracle EffectOracle) []Access {
	w := &accessWalker{res: r, oracle: oracle}
	w.stmt(s)
	return w.out
}

type accessWalker struct {
	res    *Resolution
	oracle EffectOracle
	out    []Access
}

func (w *accessWalker) add(a Access) { w.out = append(w.out, a) }

func (w *accessWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, x := range st.List {
			w.stmt(x)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.read(rhs)
		}
		for _, lhs := range st.Lhs {
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				// compound assignment (+=, *=, ...) reads the target too
				w.read(lhs)
			}
			w.write(lhs)
		}
	case *ast.IncDecStmt:
		w.read(st.X)
		w.write(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.read(v)
					}
					for _, name := range vs.Names {
						w.write(name)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.read(st.X)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.read(e)
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.read(st.Cond)
		w.stmt(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.read(st.Cond)
		}
		w.stmt(st.Post)
		w.stmt(st.Body)
	case *ast.RangeStmt:
		w.read(st.X)
		if st.Key != nil {
			w.write(st.Key)
		}
		if st.Value != nil {
			w.write(st.Value)
		}
		w.stmt(st.Body)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.read(st.Tag)
		}
		for _, cc := range st.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				w.read(e)
			}
			for _, cs := range clause.Body {
				w.stmt(cs)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.GoStmt:
		w.read(st.Call)
	case *ast.DeferStmt:
		w.read(st.Call)
	case *ast.SendStmt:
		w.read(st.Chan)
		w.read(st.Value)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// read records e and everything it reads.
func (w *accessWalker) read(e ast.Expr) {
	switch ex := e.(type) {
	case nil:
	case *ast.Ident:
		if sym := w.res.SymbolOf(ex); sym != nil && sym.Kind != FuncSym {
			w.add(Access{Sym: sym, Kind: ReadAccess, Pos: ex.Pos()})
		}
	case *ast.BasicLit:
	case *ast.BinaryExpr:
		w.read(ex.X)
		w.read(ex.Y)
	case *ast.UnaryExpr:
		w.read(ex.X)
	case *ast.ParenExpr:
		w.read(ex.X)
	case *ast.StarExpr:
		w.read(ex.X)
	case *ast.IndexExpr:
		w.elemAccess(ex, ReadAccess)
	case *ast.SliceExpr:
		w.read(ex.X)
		for _, idx := range []ast.Expr{ex.Low, ex.High, ex.Max} {
			w.read(idx)
		}
	case *ast.SelectorExpr:
		w.fieldAccess(ex, ReadAccess)
	case *ast.CallExpr:
		w.call(ex)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// A map or array key is read; a struct literal's
				// field key resolves to no symbol.
				w.read(kv.Key)
				el = kv.Value
			}
			w.read(el)
		}
	case *ast.TypeAssertExpr:
		w.read(ex.X)
	case *ast.FuncLit:
		// Conservatively treat every free variable used in the
		// literal as read and written by the enclosing statement.
		ast.Inspect(ex.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if sym := w.res.SymbolOf(id); sym != nil && sym.Kind != FuncSym && sym.Decl < ex.Pos() {
					w.add(Access{Sym: sym, Kind: ReadAccess, Pos: id.Pos()})
					w.add(Access{Sym: sym, Kind: WriteAccess, Pos: id.Pos()})
				}
			}
			return true
		})
	}
}

// write records a store through the assignable expression e.
func (w *accessWalker) write(e ast.Expr) {
	switch ex := e.(type) {
	case *ast.Ident:
		if sym := w.res.SymbolOf(ex); sym != nil && sym.Kind != FuncSym {
			w.add(Access{Sym: sym, Kind: WriteAccess, Pos: ex.Pos()})
		}
	case *ast.ParenExpr:
		w.write(ex.X)
	case *ast.StarExpr:
		// *p = v writes through the pointee; record a write on p's
		// target, conservatively the symbol itself (element write).
		if id, ok := unwrapIdent(ex.X); ok {
			if sym := w.res.SymbolOf(id); sym != nil {
				w.add(Access{Sym: sym, Kind: WriteAccess, Elem: true, Pos: ex.Pos()})
			}
			return
		}
		w.read(ex.X)
	case *ast.IndexExpr:
		w.elemAccess(ex, WriteAccess)
	case *ast.SelectorExpr:
		w.fieldAccess(ex, WriteAccess)
	}
}

// elemAccess records a subscripted access on the base symbol,
// attaching affine index information when recognizable. Nested
// subscripts (m[i][j]) use the *first* subscript for the carried-
// distance analysis: rows indexed by the loop variable are disjoint
// regardless of the column expression. Selector bases (img.Px[p])
// carry the field path.
func (w *accessWalker) elemAccess(ex *ast.IndexExpr, kind AccessKind) {
	// Walk down to the base, collecting the outermost-first subscript.
	var firstIndex ast.Expr
	cur := ast.Expr(ex)
	for {
		ie, ok := cur.(*ast.IndexExpr)
		if !ok {
			break
		}
		firstIndex = ie.Index
		w.read(ie.Index)
		cur = ie.X
	}
	idx := w.affineIndex(firstIndex)

	if base, ok := unwrapIdent(cur); ok {
		sym := w.res.SymbolOf(base)
		if sym == nil || sym.Kind == FuncSym {
			return
		}
		w.add(Access{Sym: sym, Kind: kind, Elem: true, Index: idx, Pos: ex.Pos()})
		return
	}
	if sel, ok := cur.(*ast.SelectorExpr); ok {
		if base, path, ok2 := selectorPath(sel); ok2 {
			if sym := w.res.SymbolOf(base); sym != nil && sym.Kind != FuncSym {
				w.add(Access{Sym: sym, Kind: kind, Field: path, Elem: true, Index: idx, Pos: ex.Pos()})
			}
			return
		}
	}
	// Unanalyzable base (call results, map-of-map through calls):
	// record its reads; a write through it is additionally recorded
	// as an unknown-subscript write if any identifier is reachable.
	w.read(cur)
}

// fieldAccess records x.Field. Selector chains (a.b.c) attach the full
// path as the field name so disjoint subfields stay distinguishable.
func (w *accessWalker) fieldAccess(ex *ast.SelectorExpr, kind AccessKind) {
	base, path, ok := selectorPath(ex)
	if !ok {
		w.read(ex.X)
		return
	}
	sym := w.res.SymbolOf(base)
	if sym == nil {
		return // package-qualified name (pkg.Func) or unresolved
	}
	if sym.Kind == FuncSym {
		return
	}
	w.add(Access{Sym: sym, Kind: kind, Elem: true, Field: path, Pos: ex.Pos()})
}

// call records a call's argument reads plus the oracle's effects.
// Method calls additionally read their receiver; mutation of the
// receiver is only assumed when the oracle reports it (optimistic).
func (w *accessWalker) call(ex *ast.CallExpr) {
	switch fun := ex.Fun.(type) {
	case *ast.Ident:
		// Builtin-like conversions and calls: arguments are reads.
		// append(s, x) also writes s's elements conceptually; the
		// caller re-assigns the result, which carries the write.
	case *ast.SelectorExpr:
		w.read(fun.X) // receiver (or package name, which resolves to nothing)
	default:
		w.read(ex.Fun)
	}
	for _, a := range ex.Args {
		w.read(a)
	}
	if w.oracle != nil {
		w.out = append(w.out, w.oracle.CallEffects(ex, w.res)...)
	}
}

// affineIndex recognizes i, i+c, i-c, c+i subscripts.
func (w *accessWalker) affineIndex(e ast.Expr) *Index {
	switch ix := e.(type) {
	case *ast.Ident:
		if sym := w.res.SymbolOf(ix); sym != nil {
			return &Index{Var: sym, Offset: 0, Affine: true}
		}
	case *ast.BinaryExpr:
		if ix.Op == token.ADD || ix.Op == token.SUB {
			if id, ok := ix.X.(*ast.Ident); ok {
				if c, ok2 := intLit(ix.Y); ok2 {
					if sym := w.res.SymbolOf(id); sym != nil {
						off := c
						if ix.Op == token.SUB {
							off = -c
						}
						return &Index{Var: sym, Offset: off, Affine: true}
					}
				}
			}
			if ix.Op == token.ADD {
				if id, ok := ix.Y.(*ast.Ident); ok {
					if c, ok2 := intLit(ix.X); ok2 {
						if sym := w.res.SymbolOf(id); sym != nil {
							return &Index{Var: sym, Offset: c, Affine: true}
						}
					}
				}
			}
		}
	case *ast.BasicLit:
		if _, ok := intLit(ix); ok {
			return &Index{Var: nil, Offset: 0, Affine: false}
		}
	}
	return &Index{Affine: false}
}

func intLit(e ast.Expr) (int, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.Atoi(lit.Value)
	if err != nil {
		return 0, false
	}
	return v, true
}

// unwrapIdent strips parens and derefs down to a base identifier.
func unwrapIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// selectorPath flattens a selector chain a.b.c into (a, "b.c").
func selectorPath(ex *ast.SelectorExpr) (*ast.Ident, string, bool) {
	path := ex.Sel.Name
	cur := ex.X
	for {
		switch x := cur.(type) {
		case *ast.Ident:
			return x, path, true
		case *ast.SelectorExpr:
			path = x.Sel.Name + "." + path
			cur = x.X
		case *ast.ParenExpr:
			cur = x.X
		case *ast.StarExpr:
			cur = x.X
		case *ast.IndexExpr:
			cur = x.X
		default:
			return nil, "", false
		}
	}
}

// ReadSet filters accesses down to reads; WriteSet to writes.
func ReadSet(accs []Access) []Access {
	var out []Access
	for _, a := range accs {
		if a.Kind == ReadAccess {
			out = append(out, a)
		}
	}
	return out
}

// WriteSet filters accesses down to writes.
func WriteSet(accs []Access) []Access {
	var out []Access
	for _, a := range accs {
		if a.Kind == WriteAccess {
			out = append(out, a)
		}
	}
	return out
}
