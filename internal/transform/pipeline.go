package transform

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"patty/internal/deps"
	"patty/internal/source"
	"patty/internal/tadl"
)

// streamVar is one per-element value that crosses stage boundaries and
// therefore becomes a field of the generated envelope struct.
type streamVar struct {
	sym      *deps.Symbol
	defIdent *ast.Ident
	typ      string
	// header marks variables bound by the loop header (index, range
	// value): the StreamGenerator fills them at item creation.
	header bool
	// liveOut marks variables read after the loop; the generator
	// writes the last element's value back.
	liveOut bool
}

// genPipeline rewrites an annotated loop into a parrt.Pipeline
// instantiation with an envelope struct for the stage data stream.
func (t *Transformer) genPipeline(fn *source.Function, loop ast.Stmt, ann tadl.Annotation, name string) (string, error) {
	body := loopBody(loop)
	if body == nil {
		return "", fmt.Errorf("transform: pipeline annotation on a non-loop")
	}
	specs, err := tadl.Stages(ann.Arch)
	if err != nil {
		return "", err
	}

	// Bind labels to their top-level statements, in body order.
	stmtsOf := make(map[string][]ast.Stmt)
	for _, s := range body.List {
		label, ok := ann.StageOf[fn.StmtID(s)]
		if !ok {
			return "", fmt.Errorf("transform: statement %d has no stage label", fn.StmtID(s))
		}
		stmtsOf[label] = append(stmtsOf[label], s)
	}
	for _, spec := range specs {
		for _, l := range spec.Labels {
			if len(stmtsOf[l]) == 0 {
				return "", fmt.Errorf("transform: stage %s has no statements", l)
			}
		}
	}

	res := deps.Resolve(fn)

	// Header-bound variables.
	var headerIdents []*ast.Ident
	switch l := loop.(type) {
	case *ast.ForStmt:
		init, ok := l.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
			return "", fmt.Errorf("transform: pipeline for-loop init must be `i := lo`")
		}
		if id, ok := init.Lhs[0].(*ast.Ident); ok {
			headerIdents = append(headerIdents, id)
		}
	case *ast.RangeStmt:
		if l.Tok != token.DEFINE {
			return "", fmt.Errorf("transform: pipeline range loop must use := variables")
		}
		for _, e := range []ast.Expr{l.Key, l.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				headerIdents = append(headerIdents, id)
			}
		}
	}

	// Per-stage symbol sets.
	stageOfLabel := make(map[string]int)
	for i, spec := range specs {
		for _, l := range spec.Labels {
			stageOfLabel[l] = i
		}
	}
	type varInfo struct {
		sym      *deps.Symbol
		defIdent *ast.Ident
		defStage int // -1: header; -2: outside the loop
		touched  map[int]bool
		written  map[int]bool
	}
	vars := make(map[*deps.Symbol]*varInfo)
	getInfo := func(sym *deps.Symbol) *varInfo {
		vi, ok := vars[sym]
		if !ok {
			vi = &varInfo{sym: sym, defStage: -2, touched: map[int]bool{}, written: map[int]bool{}}
			vars[sym] = vi
		}
		return vi
	}
	for _, id := range headerIdents {
		sym := res.SymbolOf(id)
		if sym == nil {
			continue
		}
		vi := getInfo(sym)
		vi.defStage = -1
		vi.defIdent = id
	}
	definedIn := make(map[*deps.Symbol]int) // stage index of := definition
	for label, stmts := range stmtsOf {
		stage := stageOfLabel[label]
		for _, s := range stmts {
			for _, id := range topLevelDefs(s) {
				sym := res.SymbolOf(id)
				if sym == nil {
					continue
				}
				vi := getInfo(sym)
				vi.defStage = stage
				vi.defIdent = id
				definedIn[sym] = stage
			}
			for _, a := range deps.Accesses(res, s, nil) {
				if a.Sym == nil || a.Sym.Kind == deps.GlobalSym {
					continue
				}
				vi := getInfo(a.Sym)
				vi.touched[stage] = true
				if a.Kind == deps.WriteAccess {
					vi.written[stage] = true
				}
			}
		}
	}

	// Stream variables: defined in header or a stage and touched in a
	// different stage, or defined outside the loop and *written* in a
	// stage (privatized per element; live-out handled below).
	var streams []*streamVar
	for _, vi := range vars {
		cross := false
		for st := range vi.touched {
			if st != vi.defStage {
				cross = true
			}
		}
		switch {
		case vi.defStage >= -1 && cross:
		case vi.defStage == -2 && len(vi.written) > 0 && vi.sym.Kind == deps.LocalSym:
			// Outer local written inside a stage: privatize. Find the
			// declaring ident for its type.
			vi.defIdent = declIdentOf(fn, res, vi.sym)
			if vi.defIdent == nil {
				return "", fmt.Errorf("transform: cannot locate declaration of %s", vi.sym.Name)
			}
		default:
			continue
		}
		if vi.defIdent == nil {
			return "", fmt.Errorf("transform: stream variable %s has no definition ident", vi.sym.Name)
		}
		typ, err := t.typeOf(vi.defIdent)
		if err != nil {
			return "", err
		}
		streams = append(streams, &streamVar{
			sym:      vi.sym,
			defIdent: vi.defIdent,
			typ:      typ,
			header:   vi.defStage == -1,
			liveOut:  vi.defStage == -2 && usedAfter(fn, res, vi.sym, loop),
		})
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].sym.Name < streams[j].sym.Name })
	fieldNames := make(map[string]bool)
	for _, sv := range streams {
		if fieldNames[sv.sym.Name] {
			return "", fmt.Errorf("transform: two stream variables named %s (shadowing across stages is not supported)", sv.sym.Name)
		}
		fieldNames[sv.sym.Name] = true
	}

	// --- emit ---
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "type pattyItem struct {\n")
	for _, sv := range streams {
		fmt.Fprintf(&b, "%s %s\n", sv.sym.Name, sv.typ)
	}
	b.WriteString("}\n")

	// StreamGenerator: the original loop header feeding the item list.
	b.WriteString("pattyItems := make([]*pattyItem, 0)\n")
	headerText, err := t.headerText(fn, loop)
	if err != nil {
		return "", err
	}
	var headerFields []string
	for _, sv := range streams {
		if sv.header {
			headerFields = append(headerFields, fmt.Sprintf("%s: %s", sv.sym.Name, sv.sym.Name))
		}
	}
	fmt.Fprintf(&b, "%s{\npattyItems = append(pattyItems, &pattyItem{%s})\n}\n",
		headerText, strings.Join(headerFields, ", "))

	// Stages.
	fmt.Fprintf(&b, "pattyPL := parrt.NewPipeline(%q, ps,\n", name)
	streamSyms := make(map[*deps.Symbol]*streamVar)
	for _, sv := range streams {
		streamSyms[sv.sym] = sv
	}
	for _, spec := range specs {
		if len(spec.Labels) == 1 {
			fnText, err := t.stageFn(fn, res, stmtsOf[spec.Labels[0]], streamSyms)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "parrt.Stage[pattyItem]{Name: %q, Replicable: %t, Fn: %s},\n",
				spec.Labels[0], spec.Replicable, fnText)
			continue
		}
		fmt.Fprintf(&b, "parrt.Group(%q, %t,\n", spec.Name(), spec.Replicable)
		for _, l := range spec.Labels {
			fnText, err := t.stageFn(fn, res, stmtsOf[l], streamSyms)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s,\n", fnText)
		}
		b.WriteString("),\n")
	}
	b.WriteString(")\n")
	b.WriteString("pattyPL.Process(pattyItems)\n")

	// Live-out writebacks: sequential semantics leave the last
	// iteration's value in the variable.
	for _, sv := range streams {
		if sv.liveOut {
			fmt.Fprintf(&b, "if len(pattyItems) > 0 {\n%s = pattyItems[len(pattyItems)-1].%s\n}\n",
				sv.sym.Name, sv.sym.Name)
		}
	}
	b.WriteString("}")
	return b.String(), nil
}

// stageFn renders one stage closure: unpack inputs, original
// statements verbatim, pack outputs.
func (t *Transformer) stageFn(fn *source.Function, res *deps.Resolution, stmts []ast.Stmt, streams map[*deps.Symbol]*streamVar) (string, error) {
	defs := make(map[*deps.Symbol]bool)
	touched := make(map[*deps.Symbol]bool)
	written := make(map[*deps.Symbol]bool)
	for _, s := range stmts {
		for _, id := range topLevelDefs(s) {
			if sym := res.SymbolOf(id); sym != nil {
				defs[sym] = true
			}
		}
		for _, a := range deps.Accesses(res, s, nil) {
			if a.Sym == nil {
				continue
			}
			touched[a.Sym] = true
			if a.Kind == deps.WriteAccess {
				written[a.Sym] = true
			}
		}
	}

	var unpack, pack []string
	var names []*streamVar
	for sym := range touched {
		if sv, ok := streams[sym]; ok {
			names = append(names, sv)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i].sym.Name < names[j].sym.Name })
	for _, sv := range names {
		if !defs[sv.sym] {
			unpack = append(unpack, fmt.Sprintf("%s := pattyIt.%s", sv.sym.Name, sv.sym.Name))
		}
		if written[sv.sym] || defs[sv.sym] {
			pack = append(pack, fmt.Sprintf("pattyIt.%s = %s", sv.sym.Name, sv.sym.Name))
		}
	}
	// Unpacked read-only variables are used by the verbatim body; an
	// unpacked written variable is used by its pack line. Either way
	// no unused-variable diagnostics can occur.

	var body []string
	for _, s := range stmts {
		txt, err := t.nodeText(fn, s)
		if err != nil {
			return "", err
		}
		body = append(body, txt)
	}

	var b strings.Builder
	b.WriteString("func(pattyIt *pattyItem) {\n")
	for _, u := range unpack {
		b.WriteString(u + "\n")
	}
	for _, s := range body {
		b.WriteString(s + "\n")
	}
	for _, p := range pack {
		b.WriteString(p + "\n")
	}
	b.WriteString("}")
	return b.String(), nil
}

// headerText extracts the loop header ("for _, img := range in ")
// without its body.
func (t *Transformer) headerText(fn *source.Function, loop ast.Stmt) (string, error) {
	src, err := t.srcText(fn)
	if err != nil {
		return "", err
	}
	return src[t.offset(loop.Pos()):t.offset(loopBody(loop).Lbrace)], nil
}

// topLevelDefs returns identifiers defined by := or var at the top
// level of statement s.
func topLevelDefs(s ast.Stmt) []*ast.Ident {
	var out []*ast.Ident
	switch st := s.(type) {
	case *ast.AssignStmt:
		if st.Tok == token.DEFINE {
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					out = append(out, id)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range vs.Names {
						if n.Name != "_" {
							out = append(out, n)
						}
					}
				}
			}
		}
	}
	return out
}

// declIdentOf finds the declaring identifier of a local symbol.
func declIdentOf(fn *source.Function, res *deps.Resolution, sym *deps.Symbol) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(fn.Decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && found == nil {
			if res.SymbolOf(id) == sym && id.Pos() == sym.Decl {
				found = id
			}
		}
		return found == nil
	})
	return found
}

// usedAfter reports whether sym is referenced after the loop.
func usedAfter(fn *source.Function, res *deps.Resolution, sym *deps.Symbol, loop ast.Stmt) bool {
	used := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Pos() > loop.End() && res.SymbolOf(id) == sym {
			used = true
		}
		return !used
	})
	return used
}
