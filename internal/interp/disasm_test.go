package interp_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"patty/internal/corpus"
	"patty/internal/interp"
)

var updateGolden = flag.Bool("update", false, "rewrite golden disassembly files")

// TestGoldenDisassembly pins the bytecode layout of every corpus
// program. A diff here means the compiler changed its output — review
// the new listing and re-run with -update if intended.
func TestGoldenDisassembly(t *testing.T) {
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog, err := p.Load()
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			m := interp.NewMachine(prog)
			got := m.Disassemble()
			path := filepath.Join("testdata", "disasm", p.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run TestGoldenDisassembly -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("disassembly of %s changed; run with -update after review.\n--- got ---\n%s", p.Name, diffHead(got, string(want)))
			}
		})
	}
}

// diffHead returns the first diverging region, to keep failures short.
func diffHead(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	start := i - 200
	if start < 0 {
		start = 0
	}
	end := i + 200
	if end > len(got) {
		end = len(got)
	}
	return got[start:end]
}
