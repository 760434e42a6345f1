package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"patty/internal/difftest"
	"patty/internal/obs"
)

// capture redirects stdout around fn and returns what was printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestCmdCorpus(t *testing.T) {
	out, err := capture(t, func() error { return cmdCorpus(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"raytrace", "video", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus output missing %q", want)
		}
	}
}

func TestCmdDetectCorpusStatic(t *testing.T) {
	out, err := capture(t, func() error { return cmdDetect([]string{"-corpus", "video", "-static"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pipeline") || !strings.Contains(out, "candidate") {
		t.Errorf("detect output unexpected:\n%s", out)
	}
}

func TestCmdDetectUnknownCorpus(t *testing.T) {
	if _, err := capture(t, func() error { return cmdDetect([]string{"-corpus", "nope"}) }); err == nil {
		t.Fatal("expected error for unknown corpus program")
	}
}

func TestCmdDetectFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.go")
	src := `package p
func F(a, b []int) {
	for i := 0; i < len(a); i++ {
		b[i] = a[i] * 2
	}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return cmdDetect([]string{path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "data-parallel") {
		t.Errorf("detect output:\n%s", out)
	}
}

func TestCmdRunWritesArtifacts(t *testing.T) {
	outDir := t.TempDir()
	_, err := capture(t, func() error {
		return cmdRun([]string{"-corpus", "video", "-o", outDir})
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"annotated_video.go", "processparallel.go", "tuning.json"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing artifact %q in %v", want, names)
		}
	}
	gen, err := os.ReadFile(filepath.Join(outDir, "processparallel.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gen), "parrt.NewPipeline") {
		t.Error("generated file lacks pipeline instantiation")
	}
}

func TestCmdTransformAnnotatedFile(t *testing.T) {
	dir := t.TempDir()
	src := `package p
func double(x int) int { return 2 * x }
func Apply(a, b []int) {
	//tadl:arch forall forall(A)
	for i := 0; i < len(a); i++ {
		//tadl:stage A
		b[i] = double(a[i])
	}
}`
	path := filepath.Join(dir, "apply.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	if _, err := capture(t, func() error { return cmdTransform([]string{"-o", outDir, path}) }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "applyparallel.go")); err != nil {
		t.Fatal("generated file missing")
	}
}

func TestCmdStudy(t *testing.T) {
	out, err := capture(t, func() error { return cmdStudy(context.Background(), []string{"-seed", "4713"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Figure 5b", "Effectivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("study output missing %q", want)
		}
	}
}

func TestCmdTuneAlgorithms(t *testing.T) {
	for _, algo := range []string{"linear", "nelder-mead", "tabu", "random"} {
		out, err := capture(t, func() error { return cmdTune(context.Background(), []string{"-algo", algo, "-budget", "40"}) })
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "best") {
			t.Errorf("%s output:\n%s", algo, out)
		}
	}
	if _, err := capture(t, func() error { return cmdTune(context.Background(), []string{"-algo", "bogus"}) }); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

// TestBreakerTuneFaultRatePrintsQuarantine: `patty tune -fault-rate`
// quarantines the configurations that fault and prints the set.
func TestBreakerTuneFaultRatePrintsQuarantine(t *testing.T) {
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Quarantined) == 0 {
		t.Fatal("the fixture quarantined nothing")
	}
	out, err := capture(t, func() error {
		return cmdTune(context.Background(), []string{"-algo", "tabu", "-budget", "120", "-fault-rate", "10", "-fault-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("breaker quarantined %d configuration(s): %v\n", len(ref.Quarantined), ref.Quarantined)
	if !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}

// TestBreakerTuneFaultRateColdStore: on an empty evaluation store a
// faulting search gets no hits — the guard's retries of a fault are
// measured, not answered with the stored fault — and quarantines
// exactly what a run without a store does; a warm rerun is
// bit-identical to the cold one.
func TestBreakerTuneFaultRateColdStore(t *testing.T) {
	spec := tuneSpec{Algo: "tabu", Budget: 120, FaultRate: 10, FaultSeed: 3}
	ref, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.CacheDir = filepath.Join(t.TempDir(), "cas")
	before := metrics.Snapshot().Counters["cache.hits"]
	cold, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.Snapshot().Counters["cache.hits"] - before; d != 0 {
		t.Fatalf("cold run on an empty store hit %d times", d)
	}
	if !reflect.DeepEqual(cold.Quarantined, ref.Quarantined) || len(ref.Quarantined) == 0 {
		t.Fatalf("quarantine with a store %v, without %v", cold.Quarantined, ref.Quarantined)
	}
	warm, err := runTune(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm outcome diverged:\n got %+v\nwant %+v", warm, cold)
	}
}

func TestCmdSweepKinds(t *testing.T) {
	for _, kind := range []string{"cores", "replication", "length"} {
		out, err := capture(t, func() error { return cmdSweep([]string{"-kind", kind}) })
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "speedup") {
			t.Errorf("sweep %s output:\n%s", kind, out)
		}
	}
	if _, err := capture(t, func() error { return cmdSweep([]string{"-kind", "bogus"}) }); err == nil {
		t.Fatal("expected error for unknown sweep kind")
	}
}

func TestCmdModelViews(t *testing.T) {
	out, err := capture(t, func() error { return cmdModel([]string{"-corpus", "video", "-static"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "semantic model") || !strings.Contains(out, "detection report") {
		t.Errorf("model output:\n%s", out)
	}
	out, err = capture(t, func() error {
		return cmdModel([]string{"-corpus", "video", "-static", "-dot", "callgraph"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph callgraph") {
		t.Errorf("callgraph dot:\n%s", out)
	}
	out, err = capture(t, func() error {
		return cmdModel([]string{"-corpus", "video", "-static", "-dot", "cfg", "-fn", "Process"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"Process\"") {
		t.Errorf("cfg dot:\n%s", out)
	}
	out, err = capture(t, func() error {
		return cmdModel([]string{"-corpus", "video", "-static", "-dot", "stages"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "StreamGenerator") {
		t.Errorf("stages dot:\n%s", out)
	}
}

func TestCmdVerifyCleanCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full model + exploration")
	}
	out, err := capture(t, func() error {
		return cmdVerify([]string{"-corpus", "video", "-max-schedules", "1500"})
	})
	if err != nil {
		t.Fatalf("verify failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "OK") {
		t.Errorf("verify output:\n%s", out)
	}
}

// TestCmdVerifyDefaultsToValidate: verify runs patty.Validate's
// reduced exhaustive search, which covers the indexer pipeline's whole
// trace space in 576 runs, one per trace; a smaller -max-schedules stops it at the
// cap, and the report says so.
func TestCmdVerifyDefaultsToValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full model + exploration")
	}
	const capped = "(stopped at cap)"
	for _, tc := range []struct {
		args   []string
		want   string
		capped bool
	}{
		{[]string{"-corpus", "indexer"}, " 576 schedules", false},
		{[]string{"-corpus", "indexer", "-max-schedules", "500"}, " 500 schedules", true},
	} {
		out, err := capture(t, func() error { return cmdVerify(tc.args) })
		if err != nil {
			t.Fatalf("verify %v failed: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("verify %v: want %q in\n%s", tc.args, tc.want, out)
		}
		if got := strings.Contains(out, capped); got != tc.capped {
			t.Errorf("verify %v: %q shown = %v, want %v in\n%s", tc.args, capped, got, tc.capped, out)
		}
	}
}

func TestCmdEvalBottleneckTable(t *testing.T) {
	out, err := capture(t, func() error { return cmdEval(context.Background(), []string{"-static"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"precision", // the detection-quality table is still there
		"runtime bottleneck table",
		"probe-video", "pipeline",
		"probe-hash", "masterworker",
		"probe-scale", "parallelfor",
		"oil", // the probe pipeline's expensive stage shows up in the detail
	} {
		if !strings.Contains(out, want) {
			t.Errorf("eval output missing %q", want)
		}
	}
	out, err = capture(t, func() error { return cmdEval(context.Background(), []string{"-static", "-no-obs"}) })
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "runtime bottleneck table") {
		t.Error("-no-obs must suppress the bottleneck table")
	}
}

func TestRuntimeProbeAnalyses(t *testing.T) {
	analyses := runtimeProbe(metrics)
	if len(analyses) != 3 {
		t.Fatalf("probe produced %d analyses, want 3", len(analyses))
	}
	for _, a := range analyses {
		if a.Items == 0 || a.WallNs == 0 {
			t.Errorf("%s %q: empty analysis %+v", a.Kind, a.Name, a)
		}
	}
}

func TestCmdFuzzClean(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdFuzz(context.Background(), []string{"-seed", "1", "-n", "30", "-sched-every", "15"})
	})
	if err != nil {
		t.Fatalf("fuzz found divergences: %v\n%s", err, out)
	}
	if !strings.Contains(out, "checked 30 programs") || !strings.Contains(out, "0 divergence(s)") {
		t.Errorf("fuzz output:\n%s", out)
	}
}

// TestCmdEvalRuntimeFault: a pattern runtime crashing inside the eval
// probe must surface as a one-line "runtime fault" error (non-zero
// exit through main), never as a raw panic trace.
func TestCmdEvalRuntimeFault(t *testing.T) {
	orig := probeFn
	probeFn = func(*obs.Collector) []obs.PatternAnalysis { panic("stage exploded") }
	defer func() { probeFn = orig }()
	_, err := capture(t, func() error { return cmdEval(context.Background(), []string{"-static"}) })
	if err == nil {
		t.Fatal("faulting probe must make eval fail")
	}
	if msg := err.Error(); !strings.Contains(msg, "runtime fault: stage exploded") || strings.Contains(msg, "\n") {
		t.Errorf("want one-line runtime-fault diagnostic, got %q", msg)
	}
}

// TestCmdFuzzRuntimeFault: same contract for fuzz — a panic escaping
// the differential checker becomes a one-line diagnostic carrying the
// replay seed.
func TestCmdFuzzRuntimeFault(t *testing.T) {
	orig := checkFn
	checkFn = func(p *difftest.Prog, opt difftest.Options) *difftest.Result { panic("worker crashed") }
	defer func() { checkFn = orig }()
	_, err := capture(t, func() error { return cmdFuzz(context.Background(), []string{"-n", "1"}) })
	if err == nil {
		t.Fatal("faulting checker must make fuzz fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "runtime fault: worker crashed") || strings.Contains(msg, "\n") {
		t.Errorf("want one-line runtime-fault diagnostic, got %q", msg)
	}
	if !strings.Contains(msg, "-check-seed") {
		t.Errorf("diagnostic lacks replay seed: %q", msg)
	}
}

// TestCmdFuzzFaultLegs smokes the -faults flag: a small clean sweep
// with the fault-injection legs enabled.
func TestCmdFuzzFaultLegs(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdFuzz(context.Background(), []string{"-seed", "4713", "-n", "15", "-faults", "-sched-every", "0"})
	})
	if err != nil {
		t.Fatalf("fuzz -faults found divergences: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 divergence(s)") {
		t.Errorf("fuzz -faults output:\n%s", out)
	}
}

func TestCmdFuzzCheckSeed(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdFuzz(context.Background(), []string{"-check-seed", "0"})
	})
	if err != nil {
		t.Fatalf("check-seed replay diverged: %v\n%s", err, out)
	}
	if !strings.Contains(out, "seed 0:") || !strings.Contains(out, "no divergence") {
		t.Errorf("check-seed output:\n%s", out)
	}
}
