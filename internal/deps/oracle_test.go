package deps_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"testing"

	"patty/internal/corpus"
	"patty/internal/deps"
	"patty/internal/difftest"
	"patty/internal/source"
)

// oraclePrograms are small programs for the scoping rules the corpus
// and the generator do not exercise.
var oraclePrograms = map[string]string{
	"closures": `package p

func F(n int) int {
	r := n
	f := func(a int) (r int) {
		r = a + n
		return
	}
	g := func() int { return r }
	return f(1) + g()
}
`,
	"redeclare-param": `package p

func F(x int) (int, int) {
	a, x := 1, 2
	return a, x
}
`,
	"literals": `package p

type P struct{ k, v int }

func F(a []int) (map[int]int, P, [3]int) {
	const n = 3
	k, v := 0, 1
	var arr [n]int
	m := map[int]int{k: v}
	for i := range a {
		k := a[i]
		m = map[int]int{k: i}
	}
	return m, P{k: k, v: v}, arr
}
`,
	"shadowing": `package p

var g = 1

func (p *P) F(g int) int {
	if g := g + 1; g > 0 {
		for g := 0; g < 3; g++ {
			switch g := g * 2; g {
			case 1:
				return g
			}
		}
		return g
	}
	return g + p.x
}

type P struct{ x int }
`,
}

// TestResolveAgreesWithGoTypes checks deps.Resolve against go/types
// on every local, parameter and receiver identifier of every corpus
// program, of 200 generated programs and of oraclePrograms: an
// identifier resolves to a function's own symbol exactly when go/types
// finds a local object for it, and two identifiers share a symbol
// exactly when they share an object.
func TestResolveAgreesWithGoTypes(t *testing.T) {
	check := func(name, src string) {
		prog, err := source.ParseSources(map[string]string{name + ".go": src})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := new(types.Config).Check("p", prog.Fset, prog.Files, info)
		if err != nil {
			t.Fatalf("%s: type check: %v", name, err)
		}
		local := func(obj types.Object) bool {
			switch o := obj.(type) {
			case *types.Var:
				if o.IsField() {
					return false
				}
			case *types.Const:
			default:
				return false
			}
			return obj.Parent() != pkg.Scope() && obj.Parent() != types.Universe
		}
		for _, fn := range prog.Functions() {
			res := deps.Resolve(fn)
			symOf := map[types.Object]*deps.Symbol{}
			objOf := map[*deps.Symbol]types.Object{}
			ast.Inspect(fn.Decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || id.Name == "_" {
					return true
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				sym := res.SymbolOf(id)
				if sym != nil && sym.Kind != deps.LocalSym && sym.Kind != deps.ParamSym && sym.Kind != deps.ReceiverSym {
					sym = nil
				}
				at := fmt.Sprintf("%s: %s %s at %v", name, fn.Name, id.Name, prog.Position(id.Pos()))
				if isLocal := obj != nil && local(obj); isLocal != (sym != nil) {
					t.Errorf("%s: go/types local %v, deps symbol %v", at, isLocal, sym)
					return true
				}
				if sym == nil {
					return true
				}
				if prev, ok := symOf[obj]; ok && prev != sym {
					t.Errorf("%s: one go/types object, two deps symbols", at)
				}
				if prev, ok := objOf[sym]; ok && prev != obj {
					t.Errorf("%s: one deps symbol, two go/types objects", at)
				}
				symOf[obj], objOf[sym] = sym, obj
				return true
			})
		}
	}
	for _, p := range corpus.All() {
		check(p.Name, p.Source)
	}
	for seed := int64(1); seed <= 200; seed++ {
		check(fmt.Sprintf("gen-%d", seed), difftest.Generate(seed, difftest.GenOptions{}).Render())
	}
	for name, src := range oraclePrograms {
		check(name, src)
	}
}
