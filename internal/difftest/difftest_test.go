package difftest

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"patty/internal/seed"
	"patty/internal/source"
)

// TestGenerateDeterministic: the same (seed, shape) pair must yield a
// byte-identical program — failures reproduce from their seed alone.
func TestGenerateDeterministic(t *testing.T) {
	shapes := []Shape{ShapeAny, ShapeForall, ShapeMaster, ShapePipeline, ShapeNegative}
	for _, sh := range shapes {
		for s := int64(0); s < 25; s++ {
			a := Generate(s, GenOptions{Shape: sh})
			b := Generate(s, GenOptions{Shape: sh})
			if a.Render() != b.Render() {
				t.Fatalf("shape %d seed %d: two generations differ", sh, s)
			}
		}
	}
}

// TestGenerateShapeProperties: each forced shape produces the
// dependence structure it promises, so the differential driver's
// ground-truth comparison rests on solid invariants.
func TestGenerateShapeProperties(t *testing.T) {
	for s := int64(0); s < 100; s++ {
		if p := Generate(s, GenOptions{Shape: ShapeForall}); p.HasCarried() || p.HasBreak() {
			t.Errorf("forall seed %d has carried deps or break", s)
		}
		if p := Generate(s, GenOptions{Shape: ShapeMaster}); p.HasCarried() || p.HasBreak() || !p.Irregular() {
			t.Errorf("master seed %d: carried=%v break=%v irregular=%v",
				s, p.HasCarried(), p.HasBreak(), p.Irregular())
		}
		if p := Generate(s, GenOptions{Shape: ShapePipeline}); !p.HasCarried() || p.HasBreak() {
			t.Errorf("pipeline seed %d lacks carried deps (or has break)", s)
		}
		if p := Generate(s, GenOptions{Shape: ShapeNegative}); !p.HasCarried() && !p.HasBreak() {
			t.Errorf("negative seed %d is not a near-miss", s)
		}
	}
}

// TestDifferential is the tentpole check: N generated programs through
// the full detect → TADL → transform → parrt pipeline against the
// sequential oracle. Any divergence is a bug in the toolchain (or the
// harness) and fails loudly with a shrunk reproducer.
func TestDifferential(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	opt := Options{Configs: 2}
	sum := Run(1, n, opt, func(msg string) { t.Log(msg) })
	if len(sum.Divergences) > 0 {
		first := sum.Divergences[0]
		p := Generate(first.Seed, GenOptions{})
		small, d := Shrink(p, opt, 150)
		t.Fatalf("%d/%d programs diverged; first: %s\nshrunk reproducer (%d loop lines):\n%s",
			len(sum.Divergences), n, first.Div, small.LoopLines(), reproSource(small, d))
	}
	// The generator must keep exercising every verdict class.
	for _, kind := range []string{"data-parallel", "master-worker", "pipeline", "rejected"} {
		if sum.Kinds[kind] == 0 {
			t.Errorf("no generated program reached verdict %q (distribution: %v)", kind, sum.Kinds)
		}
	}
}

func reproSource(p *Prog, d *Divergence) string {
	if d == nil {
		return p.Render()
	}
	return d.String() + "\n" + p.Render()
}

// TestDifferentialSched runs the scheduler leg on a few small
// instances: the generated parallel unit tests must survive bounded
// CHESS-style exploration.
func TestDifferentialSched(t *testing.T) {
	if testing.Short() {
		t.Skip("sched exploration is slow under -short")
	}
	sum := Run(2, 15, Options{Configs: 1, Sched: true, SchedMax: 80}, func(msg string) { t.Log(msg) })
	if len(sum.Divergences) > 0 {
		t.Fatalf("%d/15 programs diverged under schedule exploration; first: %s",
			len(sum.Divergences), sum.Divergences[0].Div)
	}
}

// regressionSeed is one corpus entry: a generator seed plus the legs
// it must be replayed under.
type regressionSeed struct {
	seed   int64
	faults bool // replay with the fault-injection legs enabled
	engine bool // recorded for the VM-vs-tree engine leg
}

// regressionSeeds reads testdata/seeds.txt: one program seed per line,
// optionally followed by the tags "faults" or "engine", '#' comments
// allowed. Every divergence ever caught and shrunk gets its seed
// appended there, so past failures are re-checked forever.
func regressionSeeds(t *testing.T) []regressionSeed {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "seeds.txt"))
	if err != nil {
		t.Fatalf("open regression corpus: %v", err)
	}
	defer f.Close()
	var seeds []regressionSeed
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("bad seed line %q: %v", sc.Text(), err)
		}
		rs := regressionSeed{seed: v}
		for _, tag := range fields[1:] {
			switch tag {
			case "faults":
				rs.faults = true
			case "engine":
				rs.engine = true
			default:
				t.Fatalf("unknown tag %q on seed line %q", tag, sc.Text())
			}
		}
		seeds = append(seeds, rs)
	}
	return seeds
}

// TestRegressionSeeds replays the checked-in corpus with the sched leg
// enabled — deeper than the random sweep, affordable because the
// corpus is small. Seeds tagged "faults" additionally run the
// fault-injection legs they were recorded against; seeds tagged
// "engine" additionally sweep the VM-vs-tree differential across
// several workload sizes (the in-Check leg runs a single size).
func TestRegressionSeeds(t *testing.T) {
	for _, rs := range regressionSeeds(t) {
		p := Generate(rs.seed, GenOptions{})
		res := Check(p, Options{Configs: 3, Sched: !testing.Short(), SchedMax: 100, Faults: rs.faults})
		if res.Div != nil {
			t.Errorf("regression seed %d: %s", rs.seed, res.Div)
		}
		if rs.engine {
			prog, err := source.ParseSources(map[string]string{"fz.go": p.Render()})
			if err != nil {
				t.Errorf("regression seed %d: parse: %v", rs.seed, err)
				continue
			}
			for _, n := range []int64{1, 2, 5, 13} {
				if _, msg, _ := engineLeg(prog, "Kernel", kernelArgs(n)); msg != "" {
					t.Errorf("regression seed %d (engine, n=%d): %s", rs.seed, n, msg)
				}
			}
		}
	}
}

// TestDifferentialFaults sweeps generated programs with the
// fault-injection legs on: transient faults must heal invisibly under
// Retry and fatal faults must drop exactly the injected items under
// SkipItem, for every pattern kind the detector emits.
func TestDifferentialFaults(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	sum := Run(4713, n, Options{Configs: 1, Faults: true}, func(msg string) { t.Log(msg) })
	if len(sum.Divergences) > 0 {
		first := sum.Divergences[0]
		t.Fatalf("%d/%d programs diverged under fault injection; first: %s\n%s",
			len(sum.Divergences), n, first.Div, Generate(first.Seed, GenOptions{}).Render())
	}
}

// TestMutationCaught is the harness's own acceptance test: break the
// PLDD rule (ignore every carried dependence) and the differential
// driver must catch the resulting misclassification for pipeline-shaped
// programs — without executing a single racing goroutine, because the
// deterministic reorder check runs before any parallel leg.
func TestMutationCaught(t *testing.T) {
	opt := Options{Configs: 2, Mut: MutIgnoreCarried}
	caught := 0
	for s := int64(0); s < 15; s++ {
		p := Generate(s, GenOptions{Shape: ShapePipeline})
		res := Check(p, opt)
		if res.Div == nil {
			t.Errorf("seed %d: mutated detector escaped the harness (verdict %s)", s, res.Kind)
			continue
		}
		caught++
		if res.Div.Kind != "exec-reorder" && res.Div.Kind != "exec" && res.Div.Kind != "verdict" {
			t.Errorf("seed %d: unexpected divergence kind %q", s, res.Div.Kind)
		}
	}
	if caught == 0 {
		t.Fatal("mutation testing found zero divergences: the harness validates nothing")
	}
}

// TestMutationShrinks: a caught mutation must delta-debug down to a
// minimal reproducer — at most ten loop lines — and persist as a
// standalone repro file.
func TestMutationShrinks(t *testing.T) {
	opt := Options{Configs: 2, Mut: MutIgnoreCarried}
	p := Generate(3, GenOptions{Shape: ShapePipeline})
	if Check(p, opt).Div == nil {
		t.Fatal("seed 3 no longer diverges under MutIgnoreCarried; pick a new seed")
	}
	small, d := Shrink(p, opt, 0)
	if d == nil {
		t.Fatal("shrink lost the divergence")
	}
	if got := small.LoopLines(); got > 10 {
		t.Errorf("shrunk reproducer has %d loop lines, want <= 10:\n%s", got, small.Render())
	}
	if len(small.Body) > 2 {
		t.Errorf("shrunk body has %d statements, want <= 2", len(small.Body))
	}
	// The shrunk program must still diverge on its own.
	if Check(small, opt).Div == nil {
		t.Error("shrunk program does not reproduce the divergence")
	}

	dir := t.TempDir()
	path, err := WriteRepro(dir, small, d)
	if err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read repro: %v", err)
	}
	for _, want := range []string{d.Kind, "func Kernel", "replay:"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("repro file lacks %q:\n%s", want, data)
		}
	}
}

// TestShrinkPreservesValidity: shrinking must never accept a program
// whose divergence degraded into a harness/phase error.
func TestShrinkPreservesValidity(t *testing.T) {
	opt := Options{Configs: 1, Mut: MutIgnoreCarried}
	for s := int64(0); s < 5; s++ {
		p := Generate(s, GenOptions{Shape: ShapePipeline})
		if Check(p, opt).Div == nil {
			continue
		}
		small, d := Shrink(p, opt, 60)
		if d == nil {
			t.Errorf("seed %d: shrink lost the divergence", s)
			continue
		}
		if d.Kind == "harness" || d.Kind == "phase" {
			t.Errorf("seed %d: shrink accepted invalid kind %q", s, d.Kind)
		}
		if small.Lines() > p.Lines() {
			t.Errorf("seed %d: shrink grew the program (%d -> %d lines)", s, p.Lines(), small.Lines())
		}
	}
}

// TestSeedMixStability pins the seed-derivation scheme: CLI runs,
// fuzz targets and regression replays all address programs by
// seed.Mix(base, index), so silently changing it would orphan every
// recorded seed.
func TestSeedMixStability(t *testing.T) {
	if got := seed.Mix(1, 0); got != Generate(got, GenOptions{}).Seed {
		t.Fatalf("Generate does not record its seed: %d", got)
	}
	if a, b := seed.Mix(1, 7), seed.Mix(1, 7); a != b {
		t.Fatalf("seed.Mix is not deterministic: %d vs %d", a, b)
	}
	if seed.Derive(seed.Default, 42) != 42 {
		t.Fatal("seed.Derive must be the identity at the default base")
	}
}
