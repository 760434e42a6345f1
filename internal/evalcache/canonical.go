package evalcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"

	"patty/internal/deps"
	"patty/internal/source"
)

// ProgramHash returns the content address of an interp program: a
// SHA-256 over a canonical dump of its parsed form. Two sources that
// differ only in ways the evaluator cannot observe hash identically:
//
//   - Whitespace and formatting: positions are filtered from the dump,
//     so layout never reaches the hash.
//   - Comments, including //tadl: directives: parsing without
//     ParseComments drops them, which is what makes the tadl
//     annotate→parse round-trip a fixed point of the hash — an
//     annotated resubmission of a previously tuned program hits.
//   - Function-local names: the receivers, parameters, named results
//     and locals deps.Resolve finds in a function (its function
//     literals' included) are renamed _v0, _v1, … in the order it
//     declared them, so `for i := range xs` and `for idx := range xs`
//     address the same cached evaluations.
//
// Top-level names (functions, types, globals) are kept verbatim: they
// are the program's interface — entry points are selected by name, so
// renaming a function is a semantic change and must miss. So are the
// names of a function holding a construct the resolver does not model
// (deps.Resolution.Complete): an identifier it left unresolved would
// keep its name while its declaration was renamed, and two programs
// that read different variables could share an address. Such a
// function costs hits, never a wrong one.
func ProgramHash(sources map[string]string) (string, error) {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	prog := &source.Program{Fset: token.NewFileSet()}
	for _, name := range names {
		f, err := parser.ParseFile(prog.Fset, name, sources[name], parser.SkipObjectResolution)
		if err != nil {
			return "", fmt.Errorf("evalcache: parse %s: %w", name, err)
		}
		prog.Files = append(prog.Files, f)
	}
	for _, f := range prog.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				canonicalize(deps.Resolve(&source.Function{Name: source.FuncName(fd), Decl: fd, File: f, Prog: prog}))
			}
		}
	}
	h := sha256.New()
	for i, f := range prog.Files {
		fmt.Fprintf(h, "-- %s --\n", names[i])
		if err := ast.Fprint(h, nil, f, canonicalFilter); err != nil {
			return "", fmt.Errorf("evalcache: dump %s: %w", names[i], err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalize renames one resolved function's own symbols, every use
// with its declaration. Each function numbers from _v0, so editing one
// never shifts another's canonical form.
func canonicalize(res *deps.Resolution) {
	if !res.Complete() {
		return
	}
	canon := make(map[*deps.Symbol]string, len(res.Declared()))
	for i, sym := range res.Declared() {
		canon[sym] = "_v" + strconv.Itoa(i)
	}
	ast.Inspect(res.Fn.Decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if name, ok := canon[res.SymbolOf(id)]; ok {
				id.Name = name
			}
		}
		return true
	})
}

// SpecHash addresses a non-program workload (e.g. the built-in tune
// pipeline parameterized by an eval spec): sha256 over kind plus the
// spec's JSON. kind namespaces unrelated spec schemas so they can
// never collide.
func SpecHash(kind string, v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("evalcache: marshal spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{'\n'})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// posType lets the dump filter drop every position field; with
// positions gone, formatting cannot influence the hash.
var posType = reflect.TypeOf(token.Pos(0))

func canonicalFilter(name string, v reflect.Value) bool {
	if !ast.NotNilFilter(name, v) {
		return false
	}
	return v.Type() != posType
}
