package model_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"patty/internal/corpus"
	"patty/internal/model"
	"patty/internal/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/dynamic_corpus.golden")

type goldenLoop struct {
	Fn       string
	Loop     int
	HotShare float64
	Dynamic  *profile.LoopProfile
}

type goldenProgram struct {
	Name      string
	TotalTime uint64
	Loops     []goldenLoop
}

// TestDynamicCorpusGolden pins the dynamic half of the semantic model:
// for every corpus program, the sample workload's total virtual time
// and, per loop, its hot share and full dynamic summary — iterations,
// per-statement times, counts and shares, and every observed carried
// dependence. Any change to how profiling runs are executed or paired
// must leave this file untouched; regenerate only with -update, after
// a change that is meant to alter what the profiler observes.
func TestDynamicCorpusGolden(t *testing.T) {
	var out []goldenProgram
	for _, p := range corpus.All() {
		m, err := p.BuildModel(true)
		if err != nil {
			t.Fatal(err)
		}
		gp := goldenProgram{Name: p.Name, TotalTime: m.TotalTime}
		for _, lm := range m.AllLoops() {
			gp.Loops = append(gp.Loops, goldenLoop{
				Fn:       lm.Fn.Name,
				Loop:     lm.LoopID,
				HotShare: lm.HotShare,
				Dynamic:  lm.Dynamic,
			})
		}
		out = append(out, gp)
	}
	got, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "dynamic_corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("dynamic model differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dynamic model differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// BenchmarkEnrichDynamic measures dynamic model creation — the
// profiling runs plus dependence pairing — on the two largest corpus
// workloads. Run with: go test -run '^$' -bench EnrichDynamic -benchmem ./internal/model
func BenchmarkEnrichDynamic(b *testing.B) {
	for _, name := range []string{"raytrace", "video"} {
		p := corpus.Get(name)
		prog, err := p.Load()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := model.Build(prog)
				b.StartTimer()
				if err := m.EnrichDynamic(p.Workload()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// enrichBytesBound caps the heap bytes one raytrace enrichment
// allocates. The pairer's shadow pages and the interpreter's
// slice-backed struct fields bring it to about 9.0 MiB on linux/amd64
// (10.3 MiB under -race); a map of fields per struct took about
// 11.5 MiB, a map per traced loop about 38 MiB, and 48-byte shadow
// entries about 23 MiB.
const enrichBytesBound = 18 << 20

// TestEnrichDynamicBytes is the byte gate of dynamic model creation:
// it reads the heap bytes allocated by EnrichDynamic on raytrace, the
// corpus's largest trace, and fails above enrichBytesBound.
func TestEnrichDynamicBytes(t *testing.T) {
	p := corpus.Get("raytrace")
	prog, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	m := model.Build(prog)
	w := p.Workload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.EnrichDynamic(w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("EnrichDynamic(raytrace) allocated %.1f MiB", float64(got)/(1<<20))
	if got > enrichBytesBound {
		t.Fatalf("allocation above the bound of %.1f MiB", float64(enrichBytesBound)/(1<<20))
	}
}
