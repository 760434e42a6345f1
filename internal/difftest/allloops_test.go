package difftest

import (
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

// kernelArgs is the argument list generated programs' Kernel takes.
func kernelArgs(n int64) func(*interp.Machine) []interp.Value {
	return func(*interp.Machine) []interp.Value { return []interp.Value{n} }
}

// TestEngineAllLoopsSweep runs AllLoopsDiff over generated programs:
// with every loop traced in one run, the tree-walker and the VM must
// deliver identical per-loop streams and iteration counts, each equal
// to that loop's single-target trace.
func TestEngineAllLoopsSweep(t *testing.T) {
	const seeds = 300
	for i := int64(0); i < seeds; i++ {
		p := Generate(15000+i, GenOptions{})
		prog, err := source.ParseSources(map[string]string{"fz.go": p.Render()})
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v", p.Seed, err)
		}
		if msg := AllLoopsDiff(prog, "Kernel", kernelArgs(int64(p.N))); msg != "" {
			t.Fatalf("seed %d: %s\n%s", p.Seed, msg, p.Render())
		}
	}
}
