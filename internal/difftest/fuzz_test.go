package difftest

import (
	"testing"

	"patty/internal/seed"
)

// fuzzCheck is the shared fuzz body: derive a program seed from the
// fuzzer's raw inputs, generate, run the full differential check, and
// crash on any divergence. The fuzzer mutates (base, index) pairs; the
// splitmix64 finisher in seed.Mix spreads them over the whole seed
// space, so coverage feedback steers which program shapes get explored.
func fuzzCheck(t *testing.T, shape Shape, base, index int64) {
	p := Generate(seed.Mix(base, index), GenOptions{Shape: shape})
	opt := Options{Configs: 2}
	res := Check(p, opt)
	if res.Div != nil {
		small, d := Shrink(p, divOf(opt), 100)
		t.Fatalf("divergence: %s\nshrunk reproducer (seed %d, %d loop lines):\n%s",
			res.Div, small.Seed, small.LoopLines(), reproSource(small, d))
	}
}

// FuzzDifferential feeds mixed-shape generated programs through the
// whole pipeline. Run with: go test ./internal/difftest -fuzz FuzzDifferential$
func FuzzDifferential(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(int64(1), i)
	}
	f.Fuzz(func(t *testing.T, base, index int64) {
		fuzzCheck(t, ShapeAny, base, index)
	})
}

// FuzzDifferentialPipeline biases generation toward stage-shaped
// bodies: the pipeline transform plus parrt's replication/reordering
// machinery is the deepest code path and deserves its own target.
func FuzzDifferentialPipeline(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(int64(2), i)
	}
	f.Fuzz(func(t *testing.T, base, index int64) {
		fuzzCheck(t, ShapePipeline, base, index)
	})
}

// FuzzVMvsTreeWalker focuses exclusively on the engine differential:
// generate a program and run AllLoopsDiff on it — the all-loops run on
// the tree-walking interpreter and the bytecode VM, then untraced and
// every loop as the single target on both — and crash on any
// disagreement in values, error text, virtual time, profile, iteration
// counts or memory trace, shrunk against AllLoopsDiff itself. Much
// faster per input than the full pipeline targets, so it covers far
// more of the generator space per fuzzing minute. It is, with
// TestEngineAllLoopsSweep and the "engine" regression seeds, where the
// engines are compared: Check runs only the VM.
// Run with: go test ./internal/difftest -fuzz FuzzVMvsTreeWalker
func FuzzVMvsTreeWalker(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(int64(7), i)
	}
	f.Fuzz(func(t *testing.T, base, index int64) {
		p := Generate(seed.Mix(base, index), GenOptions{})
		if div := engineDiff(p); div != nil {
			small, d := Shrink(p, engineDiff, 100)
			t.Fatalf("engine divergence: %s\nshrunk reproducer (seed %d, %d loop lines):\n%s",
				div, small.Seed, small.LoopLines(), reproSource(small, d))
		}
	})
}
