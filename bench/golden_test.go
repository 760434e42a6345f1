//go:build linux

package main

import (
	"maps"
	"slices"
	"testing"

	"patty/internal/corpus"
	"patty/internal/tuning"
)

// A verify-corpus run must fail an op whose outcome departs from the
// golden in any column, and pass it when the golden is intact.
func TestPerturbedVerifyGoldenIsCaught(t *testing.T) {
	in, err := prepareVerify()
	if err != nil {
		t.Fatal(err)
	}
	const name = "smooth"
	ok := in.golden[name]
	perturb := map[string]func(o *verifyOutcome){
		"intact":     func(o *verifyOutcome) {},
		"outputs":    func(o *verifyOutcome) { o.Outputs++ },
		"params":     func(o *verifyOutcome) { o.Params-- },
		"tests":      func(o *verifyOutcome) { o.Tests++ },
		"verdict":    func(o *verifyOutcome) { o.Verdict = "buggy" },
		"kind":       func(o *verifyOutcome) { o.Candidates = []string{"Smooth#0:master-worker"} },
		"location":   func(o *verifyOutcome) { o.Candidates = []string{"Smooth#1:data-parallel"} },
		"extra":      func(o *verifyOutcome) { o.Candidates = append(slices.Clone(o.Candidates), "Main#0:data-parallel") },
		"no-verdict": func(o *verifyOutcome) { o.Candidates, o.Verdict = nil, "none" },
	}
	for label, f := range perturb {
		g := ok
		f(&g)
		e := &env{cfg: config{workload: "verify-corpus", ops: 1}, res: &childResult{}}
		verifyLoop(e, &verifyInputs{
			progs:  []*corpus.Program{corpus.Get(name)},
			golden: map[string]verifyOutcome{name: g},
		})
		if want := map[bool]int{true: 0, false: 1}[label == "intact"]; e.res.Failed != want {
			t.Errorf("%s: %d failed ops, want %d (%v)", label, e.res.Failed, want, e.res.Errors)
		}
	}
}

// The tune reference must accept the local search's answer and refuse
// any other best or cost.
func TestPerturbedTuneGoldenIsCaught(t *testing.T) {
	g, err := loadTuneGolden()
	if err != nil {
		t.Fatal(err)
	}
	for cores := 2; cores <= 11; cores++ {
		dims, start, obj := tuneModel(cores)
		res := tuning.LinearSearch{}.Tune(dims, start, obj, tuneBudget)
		if err := g.check(cores, res.Best, res.BestCost); err != nil {
			t.Fatalf("intact golden: %v", err)
		}
		if g.check(cores, res.Best, res.BestCost+1) == nil {
			t.Errorf("cores=%d: cost off by one not caught", cores)
		}
		best := maps.Clone(res.Best)
		best["repl.oil"]++
		if g.check(cores, best, res.BestCost) == nil {
			t.Errorf("cores=%d: different best not caught", cores)
		}
	}
	if g.check(12, nil, 0) == nil {
		t.Error("a core count without a golden row passed")
	}
}

// Each tune golden row must be a global optimum of the model, found by
// enumerating all 32 configurations rather than by any tuner.
func TestTuneGoldenIsTheOptimum(t *testing.T) {
	g, err := loadTuneGolden()
	if err != nil {
		t.Fatal(err)
	}
	for cores := 2; cores <= 11; cores++ {
		_, _, obj := tuneModel(cores)
		bestCost := -1.0
		for repl := 1; repl <= 8; repl++ {
			for fuse := 0; fuse <= 1; fuse++ {
				for seq := 0; seq <= 1; seq++ {
					c := obj(map[string]int{"repl.oil": repl, "fuse.crop.histo": fuse, "sequential": seq})
					if bestCost < 0 || c < bestCost {
						bestCost = c
					}
				}
			}
		}
		want := g[cores]
		if want.cost != bestCost || obj(want.best) != bestCost {
			t.Errorf("cores=%d: golden %v cost %.0f (model gives %.0f), optimum %.0f",
				cores, want.best, want.cost, obj(want.best), bestCost)
		}
	}
}
