// Package callgraph builds the static call graph of an analyzed
// program and interprocedural side-effect summaries.
//
// The call graph is the third ingredient of the paper's semantic model.
// The summaries answer, per function, which parameters, receivers and
// globals it may write — transitively through calls — and implement
// deps.EffectOracle so that per-statement access sets include call
// effects. Calls that cannot be resolved inside the program (imported
// functions) are treated as side-effect free: the *optimistic* stance
// of the paper, whose residual risk the generated correctness tests
// cover.
package callgraph

import (
	"go/ast"
	"sort"

	"patty/internal/deps"
	"patty/internal/source"
)

// Summary is the side-effect summary of one function.
type Summary struct {
	Name string
	// WritesParams holds the indices of parameters whose pointees /
	// elements the function may write (scalars passed by value are
	// never included: writing them has no caller-visible effect).
	WritesParams map[int]bool
	// WritesRecv reports that the receiver may be mutated.
	WritesRecv bool
	// WritesGlobals lists package-level variables the function may
	// write, directly or transitively.
	WritesGlobals map[string]bool
	// Callees lists resolved callee names.
	Callees []string
}

// Pure reports whether the function has no caller-visible side
// effects.
func (s *Summary) Pure() bool {
	return len(s.WritesParams) == 0 && !s.WritesRecv && len(s.WritesGlobals) == 0
}

// Graph is the program call graph with effect summaries.
type Graph struct {
	Prog      *source.Program
	Summaries map[string]*Summary

	resolutions map[string]*deps.Resolution
	// methodIndex maps a method name to the functions implementing it.
	methodIndex map[string][]string
}

// callSite records one call with its argument symbol mapping, for
// effect propagation.
type callSite struct {
	caller   string
	callees  []string
	argSyms  []*deps.Symbol // nil entries for non-symbol arguments
	recvSym  *deps.Symbol
	paramOf  map[*deps.Symbol]int // caller param symbol → index
	recvOf   *deps.Symbol         // caller receiver symbol
	isGlobal map[*deps.Symbol]bool
}

// Build analyzes prog and returns its call graph.
func Build(prog *source.Program) *Graph {
	g := &Graph{
		Prog:        prog,
		Summaries:   make(map[string]*Summary),
		resolutions: make(map[string]*deps.Resolution),
		methodIndex: make(map[string][]string),
	}
	for _, fn := range prog.Functions() {
		g.Summaries[fn.Name] = &Summary{
			Name:          fn.Name,
			WritesParams:  make(map[int]bool),
			WritesGlobals: make(map[string]bool),
		}
		g.resolutions[fn.Name] = deps.Resolve(fn)
		if i := indexByte(fn.Name, '.'); i >= 0 {
			m := fn.Name[i+1:]
			g.methodIndex[m] = append(g.methodIndex[m], fn.Name)
		}
	}

	var sites []*callSite
	for _, fn := range prog.Functions() {
		sites = append(sites, g.directEffects(fn)...)
	}

	// Fixed-point propagation of effects through call sites.
	for changed := true; changed; {
		changed = false
		for _, site := range sites {
			caller := g.Summaries[site.caller]
			for _, calleeName := range site.callees {
				callee, ok := g.Summaries[calleeName]
				if !ok {
					continue
				}
				for idx := range callee.WritesParams {
					if idx >= len(site.argSyms) || site.argSyms[idx] == nil {
						continue
					}
					if changedFlag := g.liftWrite(caller, site, site.argSyms[idx]); changedFlag {
						changed = true
					}
				}
				if callee.WritesRecv && site.recvSym != nil {
					if g.liftWrite(caller, site, site.recvSym) {
						changed = true
					}
				}
				for glb := range callee.WritesGlobals {
					if !caller.WritesGlobals[glb] {
						caller.WritesGlobals[glb] = true
						changed = true
					}
				}
			}
		}
	}

	for _, s := range g.Summaries {
		sort.Strings(s.Callees)
	}
	return g
}

// liftWrite records that caller writes sym (a symbol inside the
// caller), translating to the caller's own summary terms. Returns true
// if the summary changed.
func (g *Graph) liftWrite(caller *Summary, site *callSite, sym *deps.Symbol) bool {
	switch {
	case site.isGlobal[sym]:
		if !caller.WritesGlobals[sym.Name] {
			caller.WritesGlobals[sym.Name] = true
			return true
		}
	case site.recvOf == sym:
		if !caller.WritesRecv {
			caller.WritesRecv = true
			return true
		}
	default:
		if idx, ok := site.paramOf[sym]; ok && !caller.WritesParams[idx] {
			caller.WritesParams[idx] = true
			return true
		}
	}
	return false
}

// directEffects analyzes one function body for direct writes and
// collects its call sites.
func (g *Graph) directEffects(fn *source.Function) []*callSite {
	res := g.resolutions[fn.Name]
	sum := g.Summaries[fn.Name]

	paramOf := make(map[*deps.Symbol]int)
	var recvSym *deps.Symbol
	idx := 0
	if fn.Decl.Type.Params != nil {
		for _, f := range fn.Decl.Type.Params.List {
			for _, name := range f.Names {
				if s := res.SymbolOf(name); s != nil {
					paramOf[s] = idx
				}
				idx++
			}
		}
	}
	if fn.Decl.Recv != nil {
		for _, f := range fn.Decl.Recv.List {
			for _, name := range f.Names {
				recvSym = res.SymbolOf(name)
			}
		}
	}

	isGlobal := func(s *deps.Symbol) bool { return s != nil && s.Kind == deps.GlobalSym }

	// Direct writes from every statement's access set (without call
	// effects — those are what the propagation adds).
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch s.(type) {
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.LabeledStmt:
			return true // handled via their leaf statements
		}
		for _, a := range deps.Accesses(res, s, nil) {
			if a.Kind != deps.WriteAccess || a.Sym == nil {
				continue
			}
			switch {
			case isGlobal(a.Sym):
				sum.WritesGlobals[a.Sym.Name] = true
			case a.Sym == recvSym && recvSym != nil:
				// Whole-receiver rebinding (t = x) on a value receiver
				// has no caller effect; element/field writes do. For
				// pointer receivers both do; we cannot see pointer-ness
				// reliably, so count element/field writes only.
				if a.Elem || a.Field != "" {
					sum.WritesRecv = true
				}
			default:
				if pidx, ok := paramOf[a.Sym]; ok && (a.Elem || a.Field != "") {
					sum.WritesParams[pidx] = true
				}
			}
		}
		return false
	})

	// Call sites.
	var sites []*callSite
	seen := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || seen[call] {
			return true
		}
		seen[call] = true
		callees, recvSymCall := g.resolveCall(call, res)
		if len(callees) == 0 {
			return true
		}
		site := &callSite{
			caller:   fn.Name,
			callees:  callees,
			recvSym:  recvSymCall,
			paramOf:  paramOf,
			recvOf:   recvSym,
			isGlobal: make(map[*deps.Symbol]bool),
		}
		for _, arg := range call.Args {
			site.argSyms = append(site.argSyms, argSymbol(arg, res))
		}
		for _, s := range site.argSyms {
			if isGlobal(s) {
				site.isGlobal[s] = true
			}
		}
		if isGlobal(site.recvSym) {
			site.isGlobal[site.recvSym] = true
		}
		sites = append(sites, site)
		for _, c := range callees {
			if !containsStr(sum.Callees, c) {
				sum.Callees = append(sum.Callees, c)
			}
		}
		return true
	})
	return sites
}

// resolveCall maps a call expression to candidate program functions.
func (g *Graph) resolveCall(call *ast.CallExpr, res *deps.Resolution) ([]string, *deps.Symbol) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if sym := res.SymbolOf(fun); sym != nil && sym.Kind == deps.FuncSym {
			if _, ok := g.Summaries[sym.Name]; ok {
				return []string{sym.Name}, nil
			}
		}
		return nil, nil
	case *ast.SelectorExpr:
		// Method call x.M(...) — candidates are every Type.M in the
		// program; receiver is x's base symbol. Package-qualified
		// calls (fmt.Println) have an unresolvable base and usually no
		// Type.M match, so they fall out as external.
		var recv *deps.Symbol
		if id, ok := baseIdent(fun.X); ok {
			recv = res.SymbolOf(id)
		}
		if recv == nil {
			return nil, nil // package-qualified or complex receiver: external
		}
		return g.methodIndex[fun.Sel.Name], recv
	}
	return nil, nil
}

// CallEffects implements deps.EffectOracle using the computed
// summaries: unresolved calls contribute nothing (optimistic), resolved
// calls contribute element-writes on the arguments and receiver their
// summary reports.
func (g *Graph) CallEffects(call *ast.CallExpr, res *deps.Resolution) []deps.Access {
	var out []deps.Access
	// Builtin with caller-visible effects.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if sym := argSymbol(call.Args[0], res); sym != nil {
			out = append(out, deps.Access{Sym: sym, Kind: deps.WriteAccess, Elem: true, Pos: call.Pos()})
		}
		return out
	}
	callees, recv := g.resolveCall(call, res)
	for _, name := range callees {
		sum, ok := g.Summaries[name]
		if !ok {
			continue
		}
		for idx := range sum.WritesParams {
			if idx < len(call.Args) {
				if sym := argSymbol(call.Args[idx], res); sym != nil {
					out = append(out, deps.Access{Sym: sym, Kind: deps.WriteAccess, Elem: true, Pos: call.Args[idx].Pos()})
				}
			}
		}
		if sum.WritesRecv && recv != nil {
			out = append(out, deps.Access{Sym: recv, Kind: deps.WriteAccess, Elem: true, Pos: call.Pos()})
		}
		for glb := range sum.WritesGlobals {
			out = append(out, deps.Access{Sym: &deps.Symbol{Name: glb, Kind: deps.GlobalSym}, Kind: deps.WriteAccess, Elem: true, Pos: call.Pos()})
		}
	}
	return out
}

// Resolution returns the lexical resolution of the named function
// that the graph's summaries were computed over, or nil. The semantic
// model shares it, so the call graph and the model see the same
// *deps.Symbol for every variable.
func (g *Graph) Resolution(name string) *deps.Resolution { return g.resolutions[name] }

// Callees returns the resolved callees of the named function.
func (g *Graph) Callees(name string) []string {
	if s, ok := g.Summaries[name]; ok {
		return s.Callees
	}
	return nil
}

// Reachable returns every function reachable from root (inclusive).
func (g *Graph) Reachable(root string) []string {
	seen := make(map[string]bool)
	var walk func(string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		if _, ok := g.Summaries[n]; !ok {
			return
		}
		seen[n] = true
		for _, c := range g.Summaries[n].Callees {
			walk(c)
		}
	}
	walk(root)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func argSymbol(arg ast.Expr, res *deps.Resolution) *deps.Symbol {
	if id, ok := baseIdent(arg); ok {
		return res.SymbolOf(id)
	}
	return nil
}

func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr: // &x
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
