//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: the
// harness re-executes itself with -child to run each workload in a
// fresh process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// BENCHMARK.json and the harness's metric tables must agree name for
// name, unit for unit and direction for direction.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	spec := loadBenchmarkFile(t)
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(spec.EndToEnd))
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(spec.PerLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	seen := make(map[string]bool)
	check := func(list []specMetric, table []metricDef, endToEnd bool) {
		want := make(map[string]metricDef)
		for _, d := range table {
			if !endToEnd || d.Bounded {
				want[d.Name] = d
			}
		}
		for _, m := range list {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			d, ok := want[m.Name]
			if !ok {
				t.Errorf("BENCHMARK.json lists %s, which the harness does not emit on every run", m.Name)
				continue
			}
			delete(want, m.Name)
			if m.Unit != d.Unit || (m.Better == "lower") != d.Lower {
				t.Errorf("%s: BENCHMARK.json says %s/%s, harness %s/lower=%v", m.Name, m.Unit, m.Better, d.Unit, d.Lower)
			}
			if endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			}
			if !endToEnd && m.Bound != nil {
				t.Errorf("%s: per-layer metrics have no bound", m.Name)
			}
		}
		for name := range want {
			t.Errorf("harness emits %s, BENCHMARK.json does not list it", name)
		}
	}
	check(spec.EndToEnd, endToEnd, true)
	check(spec.PerLayer, perLayer, false)
}

func TestInputHash(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputHash(w, 7), inputHash(w, 7), inputHash(w, 8)
		if a != b {
			t.Errorf("%s: same seed, different input schedules", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same input schedule", w)
		}
	}
}

// smokeOps sizes each workload of the smoke test at smokeSeed: the
// first verify-corpus ops include programs with unit tests to
// validate, and serve-mix has enough jobs for resubmissions to follow
// their cold twins.
var smokeOps = map[string]int{"verify-corpus": 3, "fuzz-gate": 26, "tune-fleet": 2, "serve-mix": 70}

const smokeSeed = 2

// TestSmoke runs every workload at a tiny size through the same child
// processes a real run uses and checks that each reports every metric
// it should, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns patty processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildPatty(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := loadBenchmarkFile(t)
	entered := make(map[string]bool) // per-layer metrics some workload reported non-zero
	for _, w := range workloads {
		// serve-mix runs traced only: its tracing happens after the load,
		// so the traced run measures the same end-to-end numbers.
		modes := []bool{false, true}
		if w == "serve-mix" {
			modes = []bool{true}
		}
		for _, traced := range modes {
			var stderr bytes.Buffer
			cfg := config{workload: w, seed: smokeSeed, ops: smokeOps[w], trace: traced, patty: bin, workdir: dir}
			res, err := spawnChild(cfg, &stderr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, stderr.String())
			}
			if res.Failed != 0 || res.Attempted != smokeOps[w] {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", w, traced, res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range spec.EndToEnd {
				if _, ok := res.e2eValue(m.Name); !ok {
					t.Errorf("%s: no %s", w, m.Name)
				}
			}
			if !traced {
				continue
			}
			line, err := runLine(res, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spec.PerLayer {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s: per-layer %s missing or not in %s: %+v", w, m.Name, m.Unit, v)
				}
				if v.Value != 0 {
					entered[m.Name] = true
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		// Replay table misses happen only for a tuner that steps outside
		// the enumerated space; the stock linear search never does.
		if !entered[m.Name] && m.Name != "fleet.local_evals" {
			t.Errorf("no workload reported %s", m.Name)
		}
	}
}
