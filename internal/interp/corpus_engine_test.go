package interp_test

import (
	"fmt"
	"testing"

	"patty/internal/corpus"
	"patty/internal/difftest"
	"patty/internal/interp"
)

// TestCorpusEngineEquivalence runs every corpus program on both the
// tree-walking interpreter and the bytecode VM — once untargeted, then
// once per loop as the tracing target — and requires bit-identical
// observables: return values, error text, total virtual time, target
// iteration count, the full load/store trace, and every profile map
// entry. Each program also runs once per engine with every loop traced
// together, as model creation runs it (difftest.AllLoopsDiff). The
// corpus programs are the realistic complement to the generated
// programs covered by internal/difftest.
func TestCorpusEngineEquivalence(t *testing.T) {
	for _, p := range corpus.All() {
		prog, err := p.Load()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		run := func(eng interp.Engine, target interp.Ref) ([]string, string, *interp.Profile) {
			m := interp.NewMachine(prog)
			vals, prof, err := m.Run(p.Entry, p.Args(m), interp.Options{Engine: eng, TargetLoop: target})
			var es string
			if err != nil {
				es = err.Error()
			}
			out := make([]string, len(vals))
			for i, v := range vals {
				out[i] = interp.FormatValue(v)
			}
			return out, es, prof
		}
		if msg := difftest.AllLoopsDiff(prog, p.Entry, p.Args); msg != "" {
			t.Fatalf("%s: %s", p.Name, msg)
		}
		targets := []interp.Ref{{}}
		for _, fn := range prog.Functions() {
			for _, l := range fn.Loops() {
				if id := fn.StmtID(l); id >= 0 {
					targets = append(targets, interp.Ref{Fn: fn.Name, Stmt: id})
				}
			}
		}
		for _, target := range targets {
			tv, te, tp := run(interp.EngineTree, target)
			vv, ve, vp := run(interp.EngineVM, target)
			label := fmt.Sprintf("%s target=%v", p.Name, target)
			if te != ve {
				t.Fatalf("%s: error mismatch tree=%q vm=%q", label, te, ve)
			}
			if fmt.Sprint(tv) != fmt.Sprint(vv) {
				t.Fatalf("%s: value mismatch\ntree: %v\nvm:   %v", label, tv, vv)
			}
			if te != "" {
				continue
			}
			if tp.Total != vp.Total || tp.TargetIters != vp.TargetIters {
				t.Fatalf("%s: total/iters mismatch tree=%d/%d vm=%d/%d", label, tp.Total, tp.TargetIters, vp.Total, vp.TargetIters)
			}
			if len(tp.Mem) != len(vp.Mem) {
				t.Fatalf("%s: mem len tree=%d vm=%d", label, len(tp.Mem), len(vp.Mem))
			}
			for j := range tp.Mem {
				if tp.Mem[j] != vp.Mem[j] {
					t.Fatalf("%s: mem[%d] tree=%+v vm=%+v", label, j, tp.Mem[j], vp.Mem[j])
				}
			}
			if len(tp.Incl) != len(vp.Incl) || len(tp.Self) != len(vp.Self) || len(tp.Count) != len(vp.Count) {
				t.Fatalf("%s: profile sizes differ", label)
			}
			for r, v := range tp.Incl {
				if vp.Incl[r] != v {
					t.Fatalf("%s: incl[%v] tree=%d vm=%d", label, r, v, vp.Incl[r])
				}
			}
			for r, v := range tp.Self {
				if vp.Self[r] != v {
					t.Fatalf("%s: self[%v] tree=%d vm=%d", label, r, v, vp.Self[r])
				}
			}
			for r, v := range tp.Count {
				if vp.Count[r] != v {
					t.Fatalf("%s: count[%v] tree=%d vm=%d", label, r, v, vp.Count[r])
				}
			}
		}
	}
}
