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

// TestMakefileGatesSelectTests keeps the gates honest: every
// `go test` line of the Makefile and of the CI workflow that names a
// -run, -fuzz or -bench pattern must select at least one matching Test,
// Fuzz or Benchmark function in each package it lists (a `/...`
// pattern counts as one package, the union of its tree), and each
// top-level `|` alternative of the pattern must select one in some
// package of the line, so renaming or deleting a test cannot silently
// drop it out of its gate. A -run '^$' deliberately runs no test and is
// not checked; `go -C bench …` lines are skipped, because bench/ is a
// module of its own. Function names come from go/parser over the
// *_test.go files; no go command runs.
func TestMakefileGatesSelectTests(t *testing.T) {
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		text = strings.ReplaceAll(text, "$$", "$")
		selectors := 0
		for _, line := range strings.Split(text, "\n") {
			args := shellWords(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
			if len(args) < 2 || (args[0] != "$(GO)" && args[0] != "go") || args[1] != "test" {
				continue
			}
			type selector struct {
				flag, pattern string
				prefixes      []string
			}
			var sels []selector
			var pkgs []string
			for i := 2; i < len(args); i++ {
				flag, val, inline := strings.Cut(args[i], "=")
				if !inline && i+1 < len(args) {
					val = args[i+1]
				}
				switch flag {
				case "-run":
					if val != "^$" {
						sels = append(sels, selector{flag, val, []string{"Test", "Fuzz"}})
					}
				case "-fuzz":
					sels = append(sels, selector{flag, val, []string{"Fuzz"}})
				case "-bench":
					sels = append(sels, selector{flag, val, []string{"Benchmark"}})
				default:
					if flag == "." || strings.HasPrefix(flag, "./") {
						pkgs = append(pkgs, flag)
					}
					continue
				}
				if !inline {
					i++ // the flag's value is the next word
				}
			}
			for _, sel := range sels {
				selectors++
				// -run and -bench match subtests level by level; the gate
				// names top-level functions with the first level.
				top, _, _ := strings.Cut(sel.pattern, "/")
				re, err := regexp.Compile(top)
				if err != nil {
					t.Fatalf("%s: %q: %v", file, sel.pattern, err)
				}
				alts := alternatives(top)
				altRes := make([]*regexp.Regexp, len(alts))
				for i, alt := range alts {
					altRes[i] = regexp.MustCompile(alt) // a part of a valid top-level split compiles
				}
				altHits := make([]int, len(alts))
				for _, pkg := range pkgs {
					n := 0
					for _, name := range testFuncs(t, pkg, sel.prefixes) {
						if re.MatchString(name) {
							n++
						}
						for i, altRe := range altRes {
							if altRe.MatchString(name) {
								altHits[i]++
							}
						}
					}
					if n == 0 {
						t.Errorf("%s: %s %q selects nothing in %s", file, sel.flag, sel.pattern, pkg)
					}
					t.Logf("%-24s %-6s %-60.60s %-22s %d", file, sel.flag, sel.pattern, pkg, n)
				}
				for i, alt := range alts {
					if altHits[i] == 0 {
						t.Errorf("%s: %s %q: alternative %q selects nothing in %s",
							file, sel.flag, sel.pattern, alt, strings.Join(pkgs, " "))
					}
				}
			}
		}
		if selectors == 0 {
			t.Fatalf("%s: no `go test` line with a -run, -fuzz or -bench pattern", file)
		}
	}
}

// alternatives splits a regular expression at each '|' outside
// parentheses, brackets and escapes: the terms it matches any one of.
func alternatives(re string) []string {
	var out []string
	depth, inClass, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++ // the escaped byte is a literal
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			out = append(out, re[start:i])
			start = i + 1
		}
	}
	return append(out, re[start:])
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
