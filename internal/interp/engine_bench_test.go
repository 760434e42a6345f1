package interp_test

import (
	"testing"

	"patty/internal/corpus"
	"patty/internal/interp"
)

// benchCorpus runs one full pass over every corpus program per
// iteration on the given engine. The Machines are built (and for the
// VM, compiled) outside the timed region, so the ratio between the two
// benchmarks is the pure interpretation speedup.
func benchCorpus(b *testing.B, eng interp.Engine) {
	type loadedProg struct {
		p *corpus.Program
		m *interp.Machine
	}
	var loaded []loadedProg
	for _, p := range corpus.All() {
		sp, err := p.Load()
		if err != nil {
			b.Fatal(err)
		}
		m := interp.NewMachine(sp)
		m.SetEngine(eng)
		loaded = append(loaded, loadedProg{p, m})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loaded {
			if _, _, err := l.m.Run(l.p.Entry, l.p.Args(l.m), interp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineTree(b *testing.B) { benchCorpus(b, interp.EngineTree) }
func BenchmarkEngineVM(b *testing.B)   { benchCorpus(b, interp.EngineVM) }
