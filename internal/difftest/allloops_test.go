package difftest

import (
	"fmt"
	"testing"

	"patty/internal/source"
)

// engineDiff is the engine gates' check of one generated program:
// AllLoopsDiff on its rendering, with Kernel's n = p.N. A disagreement
// is an "engine" divergence, so Shrink can reduce it against this
// check.
func engineDiff(p *Prog) *Divergence {
	src := p.Render()
	prog, err := source.ParseSources(map[string]string{"fz.go": src})
	if err != nil {
		return &Divergence{Kind: "harness", Seed: p.Seed, Source: src,
			Detail: fmt.Sprintf("generated source does not parse: %v", err)}
	}
	if msg := AllLoopsDiff(prog, "Kernel", kernelArgs(int64(p.N))); msg != "" {
		return &Divergence{Kind: "engine", Seed: p.Seed, Source: src, Detail: msg}
	}
	return nil
}

// TestEngineAllLoopsSweep runs AllLoopsDiff over generated programs:
// with every loop traced in one run, the tree-walker and the VM must
// deliver identical per-loop streams and iteration counts, each equal
// to that loop's single-target trace. Pipeline-biased programs (the
// bias of FuzzDifferentialPipeline) get a sweep of their own.
func TestEngineAllLoopsSweep(t *testing.T) {
	sweeps := []struct {
		shape Shape
		base  int64
		n     int64
	}{{ShapeAny, 15000, 300}, {ShapePipeline, 25000, 100}}
	for _, sw := range sweeps {
		for i := int64(0); i < sw.n; i++ {
			p := Generate(sw.base+i, GenOptions{Shape: sw.shape})
			if d := engineDiff(p); d != nil {
				t.Fatalf("shape %d seed %d: %s\n%s", sw.shape, p.Seed, d.Detail, p.Render())
			}
		}
	}
}
