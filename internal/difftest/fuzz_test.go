package difftest

import (
	"testing"

	"patty/internal/seed"
	"patty/internal/source"
)

// fuzzCheck is the shared fuzz body: derive a program seed from the
// fuzzer's raw inputs, generate, run the full differential check, and
// crash on any divergence. The fuzzer mutates (base, index) pairs; the
// splitmix64 finisher in seed.Mix spreads them over the whole seed
// space, so coverage feedback steers which program shapes get explored.
func fuzzCheck(t *testing.T, shape Shape, base, index int64) {
	p := Generate(seed.Mix(base, index), GenOptions{Shape: shape})
	res := Check(p, Options{Configs: 2})
	if res.Div != nil {
		small, d := Shrink(p, Options{Configs: 2}, 100)
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
// generate a program, run it on the tree-walking interpreter and the
// bytecode VM for every loop target and once with all loops traced
// together, and crash on any disagreement in values, error text,
// virtual time, profile or memory trace. Much
// faster per input than the full pipeline targets, so it covers far
// more of the generator space per fuzzing minute.
// Run with: go test ./internal/difftest -fuzz FuzzVMvsTreeWalker
func FuzzVMvsTreeWalker(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(int64(7), i)
	}
	f.Fuzz(func(t *testing.T, base, index int64) {
		p := Generate(seed.Mix(base, index), GenOptions{})
		prog, err := source.ParseSources(map[string]string{"fz.go": p.Render()})
		if err != nil {
			t.Fatalf("generated source does not parse: %v", err)
		}
		if msg := engineDiff(prog, int64(p.N)); msg != "" {
			small, d := Shrink(p, Options{Configs: 1}, 100)
			t.Fatalf("engine divergence: %s\nshrunk reproducer (seed %d, %d loop lines):\n%s",
				msg, small.Seed, small.LoopLines(), reproSource(small, d))
		}
		if msg := AllLoopsDiff(prog, "Kernel", kernelArgs(int64(p.N))); msg != "" {
			t.Fatalf("engine divergence: %s\nprogram (seed %d):\n%s", msg, p.Seed, p.Render())
		}
	})
}
