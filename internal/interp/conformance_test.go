package interp

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"patty/internal/source"
)

// goDivergences are the panel cases whose interpreter result is known
// to differ from Go's, with both values. The test fails when such a
// case starts to agree with Go, so that the entry is removed with the
// fix.
var goDivergences = map[string]struct{ interp, golang string }{
	// A three-clause for variable is one variable for all iterations
	// in the interpreter; Go 1.22 gives each iteration its own.
	"closure-for-clause-var": {interp: "1323", golang: "1012"},
}

// TestEngineGoConformance pins the closure and package-initialization
// panels to Go itself: every such case with a result is compiled as one
// package of a generated module (go 1.22), built once with the local
// toolchain, and each value its main prints must equal the VM's result
// for the case.
func TestEngineGoConformance(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module conformance\n\ngo 1.22\n")
	var imports, calls strings.Builder
	var cases []panelCase
	for _, tc := range append(closureCases[:len(closureCases):len(closureCases)], initCases...) {
		if tc.wantErr != "" {
			continue
		}
		pkg := fmt.Sprintf("c%d", len(cases))
		cases = append(cases, tc)
		write(filepath.Join(pkg, "case.go"), tc.src)
		args := make([]string, len(tc.args))
		for i, a := range tc.args {
			if _, ok := a.(int64); !ok {
				t.Fatalf("%s: argument %v has no Go rendering", tc.name, a)
			}
			args[i] = formatValue(a)
		}
		fmt.Fprintf(&imports, "\t%s %q\n", pkg, "conformance/"+pkg)
		fmt.Fprintf(&calls, "\tfmt.Println(%q, %s.%s(%s))\n", tc.name, pkg, tc.fn, strings.Join(args, ", "))
	}
	write("main.go", "package main\n\nimport (\n\t\"fmt\"\n"+imports.String()+")\n\nfunc main() {\n"+calls.String()+"}\n")

	bin := filepath.Join(dir, "conformance")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	golden := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		golden[name] = val
	}

	for _, tc := range cases {
		prog, err := source.ParseFile("t.go", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		vals, _, err := NewMachine(prog).Run(tc.fn, tc.args, Options{})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var got []string
		for _, v := range vals {
			got = append(got, formatValue(v))
		}
		vm, want := strings.Join(got, " "), golden[tc.name]
		if d, ok := goDivergences[tc.name]; ok {
			if vm != d.interp || want != d.golang {
				t.Errorf("%s: interpreter %s, Go %s; the listed divergence is %s against %s", tc.name, vm, want, d.interp, d.golang)
			}
			continue
		}
		if vm != want {
			t.Errorf("%s: interpreter %s, Go %s", tc.name, vm, want)
		}
	}
	for name := range goDivergences {
		if _, ok := golden[name]; !ok {
			t.Errorf("listed divergence %s is no panel case with a result", name)
		}
	}
}
