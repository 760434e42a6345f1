package interp_test

import (
	"testing"

	"patty/internal/corpus"
	"patty/internal/difftest"
	"patty/internal/interp"
	"patty/internal/source"
)

// TestCorpusEngineEquivalence runs difftest.AllLoopsDiff on every
// corpus program: once per engine with every loop traced together, as
// model creation runs it, then once per engine with each loop as the
// single tracing target. Every run must be bit-identical to the
// tree-walker's all-loops run — return values, error text, total
// virtual time and every profile map entry — and every loop's stream
// and iteration counts must match across engines and modes. The corpus
// programs are the realistic complement to the generated programs
// covered by internal/difftest. Neither has closures, so one more
// program calls closures inside traced loops and runs a loop inside a
// closure, whose statements the enclosing function numbers.
func TestCorpusEngineEquivalence(t *testing.T) {
	for _, p := range corpus.All() {
		prog, err := p.Load()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if msg := difftest.AllLoopsDiff(prog, p.Entry, p.Args); msg != "" {
			t.Fatalf("%s: %s", p.Name, msg)
		}
	}
	prog, err := source.ParseFile("k.go", closureKernel)
	if err != nil {
		t.Fatal(err)
	}
	args := func(*interp.Machine) []interp.Value { return []interp.Value{int64(6)} }
	if msg := difftest.AllLoopsDiff(prog, "Kernel", args); msg != "" {
		t.Fatalf("closure kernel: %s", msg)
	}
}

const closureKernel = `package p
func Bump(x int) int { return x + 1 }
func Kernel(n int) int {
	acc := make([]int, n)
	total := 0
	add := func(i int) {
		acc[i] = acc[i] + Bump(i)
		total += acc[i]
	}
	for i := 0; i < n; i++ {
		add(i)
		if i > 0 {
			add(i - 1)
		}
	}
	sum := func() int {
		s := 0
		for _, v := range acc {
			k := v
			s += func() int { return k * 2 }()
		}
		return s
	}
	for r := 0; r < 2; r++ {
		total += sum()
	}
	return total
}`
