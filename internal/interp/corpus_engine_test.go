package interp_test

import (
	"testing"

	"patty/internal/corpus"
	"patty/internal/difftest"
)

// TestCorpusEngineEquivalence runs difftest.AllLoopsDiff on every
// corpus program: once per engine with every loop traced together, as
// model creation runs it, then once per engine with each loop as the
// single tracing target. Every run must be bit-identical to the
// tree-walker's all-loops run — return values, error text, total
// virtual time and every profile map entry — and every loop's stream
// and iteration counts must match across engines and modes. The corpus
// programs are the realistic complement to the generated programs
// covered by internal/difftest.
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
}
