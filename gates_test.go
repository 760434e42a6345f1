package patty

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileGatesSelectTests keeps the Make gates honest: every
// `$(GO) test … -run '<re>' <pkgs>` line must select at least one Test
// or Fuzz function in each package it lists (a `/...` pattern counts
// as one package, the union of its tree), so renaming or deleting a
// test cannot silently drop it out of its gate. With -fuzz the fuzz
// pattern is the selector instead, since -run '^$' deliberately runs
// nothing. Test names come from go/parser over the *_test.go files; no
// go command runs.
func TestMakefileGatesSelectTests(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	text = strings.ReplaceAll(text, "$$", "$")
	lines := 0
	for _, line := range strings.Split(text, "\n") {
		args := shellWords(line)
		if len(args) < 2 || args[0] != "$(GO)" || args[1] != "test" {
			continue
		}
		var run, fuzz string
		var pkgs []string
		for i, a := range args {
			switch {
			case a == "-run" && i+1 < len(args):
				run = args[i+1]
			case a == "-fuzz" && i+1 < len(args):
				fuzz = args[i+1]
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		pattern, prefixes := run, []string{"Test", "Fuzz"}
		if fuzz != "" {
			pattern, prefixes = fuzz, []string{"Fuzz"}
		}
		if pattern == "" {
			continue // runs every test of its packages
		}
		lines++
		// -run matches subtests level by level; the gate names top-level
		// functions with the first level.
		top, _, _ := strings.Cut(pattern, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			t.Fatalf("Makefile: %q: %v", pattern, err)
		}
		for _, pkg := range pkgs {
			n := 0
			for _, name := range testFuncs(t, pkg, prefixes) {
				if re.MatchString(name) {
					n++
				}
			}
			if n == 0 {
				t.Errorf("Makefile: -run/-fuzz %q selects no test in %s", pattern, pkg)
			}
			t.Logf("%-60.60s %-22s %d", pattern, pkg, n)
		}
	}
	if lines == 0 {
		t.Fatal("Makefile: no `$(GO) test -run` lines found")
	}
}

// shellWords splits a recipe line on blanks, keeping single-quoted
// words whole (without their quotes).
func shellWords(line string) []string {
	var out []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range strings.TrimSpace(line) {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// testFuncs lists the top-level test functions with one of the given
// prefixes in a package directory, or in every package under it for a
// `/...` pattern.
func testFuncs(t *testing.T, pkg string, prefixes []string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(filepath.Clean(pkg), string(filepath.Separator)+"...")
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && !recursive {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, p := range prefixes {
				if rest, ok := strings.CutPrefix(fn.Name.Name, p); ok && (rest == "" || !isLower(rest[0])) {
					names = append(names, fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	return names
}

func isLower(c byte) bool { return 'a' <= c && c <= 'z' }
