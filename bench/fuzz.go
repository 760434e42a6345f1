//go:build linux

package main

import (
	"time"

	"patty/internal/core"
	"patty/internal/difftest"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/ptest"
	"patty/internal/sched"
	"patty/internal/seed"
	"patty/internal/source"
)

// The patty fuzz settings every fuzz-gate op uses.
const (
	fuzzConfigs    = 3
	fuzzSchedEvery = 25
	fuzzSchedMax   = 200 // difftest's default exploration bound
)

// runFuzz is the fuzz-gate workload: a closed loop, one client, each op
// difftest.Generate then difftest.Check with schedule exploration on
// every 25th program. Program i comes from seed.Mix(seed, i), the way
// patty fuzz derives them; the oracle inside Check is the reference.
func runFuzz(e *env) error {
	e.loop(fuzzSchedEvery, func(i int) {
		tr := e.tr
		opt := difftest.Options{Configs: fuzzConfigs, Sched: i%fuzzSchedEvery == 0}
		t0 := time.Now()
		root := tr.begin("op", 0, i)
		var p *difftest.Prog
		gen := tr.do("difftest.generate", root, i, func() { p = difftest.Generate(seed.Mix(e.cfg.seed, int64(i)), difftest.GenOptions{}) })
		var res *difftest.Result
		check := tr.do("difftest.check", root, i, func() { res = difftest.Check(p, opt) })
		d := time.Since(t0)
		tr.end(root)
		if res.Div != nil {
			e.res.fail("%s", res.Div)
			return
		}
		e.opDone(d)
		if tr != nil {
			e.res.layer("difftest.generate_ms", gen)
			fuzzReplica(e, i, p, opt, check)
		}
	})
	return nil
}

// fuzzReplica splits one Check into its layers by replaying, outside
// the op, the calls Check makes: the oracle run on each engine, the
// engine leg (untargeted plus every loop target, on both engines), the
// four process phases with the Kernel workload, and on every 25th
// program the schedule exploration. What remains of Check is the
// native reference plus the parallel legs on the parrt runtime.
func fuzzReplica(e *env, op int, p *difftest.Prog, opt difftest.Options, checkMs float64) {
	tr := e.tr
	root := tr.begin("replica", 0, op)
	defer tr.end(root)
	sources := map[string]string{"fz.go": p.Render()}
	prog, err := source.ParseSources(sources)
	if err != nil {
		e.res.fail("seed %d: replica parse: %v", p.Seed, err)
		return
	}
	args := []interp.Value{int64(p.N)}
	run := func(name string, m *interp.Machine, target interp.Ref) float64 {
		return tr.do(name, root, op, func() { m.Run("Kernel", args, interp.Options{TargetLoop: target}) })
	}
	tree := interp.NewMachine(prog)
	tree.SetEngine(interp.EngineTree)
	e.res.layer("interp.tree_run_ms", run("interp.tree_run", tree, interp.Ref{}))
	vm := interp.NewMachine(prog)
	vm.SetEngine(interp.EngineVM)
	first := run("interp.vm_first_run", vm, interp.Ref{})
	warm := run("interp.vm_run", vm, interp.Ref{})
	e.res.layer("interp.vm_run_ms", warm)
	e.res.layer("interp.compile_ms", first-warm)

	legStart := time.Now()
	targets := []interp.Ref{{}}
	for _, fn := range prog.Functions() {
		for _, l := range fn.Loops() {
			if id := fn.StmtID(l); id >= 0 {
				targets = append(targets, interp.Ref{Fn: fn.Name, Stmt: id})
			}
		}
	}
	for _, target := range targets {
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
			m := interp.NewMachine(prog)
			m.SetEngine(eng)
			m.Run("Kernel", args, interp.Options{TargetLoop: target})
		}
	}
	legEnd := time.Now()
	tr.add("difftest.engine_leg", root, op, legStart, legEnd)
	leg := ms(legEnd.Sub(legStart))
	e.res.layer("difftest.engine_leg_ms", leg)

	proc := core.NewProcess(sources, core.Options{Workload: &model.Workload{
		Entry: "Kernel",
		Args:  func(*interp.Machine) []interp.Value { return args },
	}})
	process := tr.do("core.process", root, op, func() {
		if err = proc.CreateModel(); err == nil {
			if err = proc.AnalyzePatterns(); err == nil {
				if err = proc.DeriveArchitecture(); err == nil {
					err = proc.TransformCode()
				}
			}
		}
	})
	if err != nil {
		e.res.fail("seed %d: replica process: %v", p.Seed, err)
		return
	}
	e.res.layer("core.process_ms", process)

	explore := 0.0
	if opt.Sched {
		if cand := kernelCandidate(proc); cand != nil {
			explore = tr.do("sched.explore", root, op, func() {
				if ut, err := ptest.Generate(proc.Artifacts().Model, *cand, ptest.Options{Threads: 2, Iters: 3}); err == nil {
					ut.Run(sched.Options{MaxSchedules: fuzzSchedMax, PreemptionBound: 2, StopAtFirstBug: true, Seed: p.Seed})
				}
			})
			e.res.layer("sched.explore_ms", explore)
		}
	}
	// The oracle inside Check runs on the default engine, which is the
	// VM (compile included) for every generated program.
	e.res.layer("parrt.exec_ms", checkMs-first-leg-process-explore)
}

// kernelCandidate is the detected candidate for Kernel's target loop
// (its last loop), or nil when the detector rejected it.
func kernelCandidate(proc *core.Process) *pattern.Candidate {
	arts := proc.Artifacts()
	fn := arts.Model.Prog.Func("Kernel")
	loops := fn.Loops()
	if len(loops) == 0 {
		return nil
	}
	id := fn.StmtID(loops[len(loops)-1])
	for i := range arts.Report.Candidates {
		if c := &arts.Report.Candidates[i]; c.Fn == "Kernel" && c.LoopID == id {
			return c
		}
	}
	return nil
}
