package difftest

import (
	"fmt"

	"patty/internal/interp"
	"patty/internal/source"
)

// The engine leg: every generated program is executed on both the
// tree-walking interpreter and the bytecode VM, and the two runs must
// agree bit-for-bit — return values, error text, total virtual time,
// per-statement profile, target-loop iteration count and the full
// load/store trace for every loop target. The tree-walker is the
// oracle; any disagreement is an "engine" divergence and shrinks like
// any other difftest finding.

// engineRun executes Kernel on one engine and captures everything the
// comparison needs. A fresh Machine per run keeps the traced address
// space identical across engines.
func engineRun(prog *source.Program, n int64, eng interp.Engine, target interp.Ref) ([]interp.Value, *interp.Profile, string) {
	m := interp.NewMachine(prog)
	vals, prof, err := m.Run("Kernel", []interp.Value{n}, interp.Options{Engine: eng, TargetLoop: target})
	if err != nil {
		return vals, prof, err.Error()
	}
	return vals, prof, ""
}

// engineDiff runs the program on both engines — once untargeted, then
// once per loop of every function as the tracing target — and returns
// a description of the first disagreement, or "".
func engineDiff(prog *source.Program, n int64) string {
	targets := []interp.Ref{{}}
	for _, fn := range prog.Functions() {
		for _, l := range fn.Loops() {
			if id := fn.StmtID(l); id >= 0 {
				targets = append(targets, interp.Ref{Fn: fn.Name, Stmt: id})
			}
		}
	}
	for _, target := range targets {
		label := "untargeted"
		if (target != interp.Ref{}) {
			label = fmt.Sprintf("target %s#%d", target.Fn, target.Stmt)
		}
		tv, tp, te := engineRun(prog, n, interp.EngineTree, target)
		vv, vp, ve := engineRun(prog, n, interp.EngineVM, target)
		if msg := compareEngineRuns(tv, tp, te, vv, vp, ve); msg != "" {
			return label + ": " + msg
		}
	}
	return ""
}

// compareEngineRuns checks one tree run against one VM run for exact
// equality of every observable.
func compareEngineRuns(tv []interp.Value, tp *interp.Profile, te string,
	vv []interp.Value, vp *interp.Profile, ve string) string {
	if te != ve {
		return fmt.Sprintf("error mismatch: tree=%q vm=%q", te, ve)
	}
	if len(tv) != len(vv) {
		return fmt.Sprintf("tree returned %d values, vm %d", len(tv), len(vv))
	}
	for i := range tv {
		ts, vs := interp.FormatValue(tv[i]), interp.FormatValue(vv[i])
		if ts != vs {
			return fmt.Sprintf("value %d: tree=%s vm=%s", i, ts, vs)
		}
	}
	if te != "" {
		return "" // both failed identically; no profile to compare
	}
	if tp.Total != vp.Total {
		return fmt.Sprintf("virtual time: tree=%d vm=%d", tp.Total, vp.Total)
	}
	if tp.TargetIters != vp.TargetIters {
		return fmt.Sprintf("target iterations: tree=%d vm=%d", tp.TargetIters, vp.TargetIters)
	}
	if len(tp.Mem) != len(vp.Mem) {
		return fmt.Sprintf("memory trace length: tree=%d vm=%d", len(tp.Mem), len(vp.Mem))
	}
	for i := range tp.Mem {
		if tp.Mem[i] != vp.Mem[i] {
			return fmt.Sprintf("memory event %d: tree=%+v vm=%+v", i, tp.Mem[i], vp.Mem[i])
		}
	}
	if len(tp.Incl) != len(vp.Incl) || len(tp.Self) != len(vp.Self) || len(tp.Count) != len(vp.Count) {
		return fmt.Sprintf("profile sizes: tree incl/self/count=%d/%d/%d vm=%d/%d/%d",
			len(tp.Incl), len(tp.Self), len(tp.Count), len(vp.Incl), len(vp.Self), len(vp.Count))
	}
	for r, v := range tp.Incl {
		if vp.Incl[r] != v {
			return fmt.Sprintf("incl[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Incl[r])
		}
	}
	for r, v := range tp.Self {
		if vp.Self[r] != v {
			return fmt.Sprintf("self[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Self[r])
		}
	}
	for r, v := range tp.Count {
		if vp.Count[r] != v {
			return fmt.Sprintf("count[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Count[r])
		}
	}
	return ""
}

// loopRecord is a trace sink that keeps what one loop was delivered.
type loopRecord struct {
	mem    []interp.MemEvent
	leaves []int
}

func (r *loopRecord) Access(ev interp.MemEvent) { r.mem = append(r.mem, ev) }
func (r *loopRecord) Leave(iters int)           { r.leaves = append(r.leaves, iters) }

// allLoopsRun executes entry on one engine with every loop in refs
// traced in the same run.
func allLoopsRun(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value,
	eng interp.Engine, refs []interp.Ref) ([]*loopRecord, string) {
	m := interp.NewMachine(prog)
	recs := make([]*loopRecord, len(refs))
	sinks := make(map[interp.Ref]interp.TraceSink, len(refs))
	for i, ref := range refs {
		recs[i] = &loopRecord{}
		sinks[ref] = recs[i]
	}
	m.TraceLoops(sinks)
	if _, _, err := m.Run(entry, args(m), interp.Options{Engine: eng}); err != nil {
		return recs, err.Error()
	}
	return recs, ""
}

// AllLoopsDiff checks the all-loops profiling run that model creation
// makes: entry runs once per engine with every loop of the program
// traced at the same time. Both engines must deliver each loop the same
// event stream and the same per-activation iteration counts, and each
// loop's stream must equal the single-target trace of that loop — the
// Profile.Mem and TargetIters of a run with Options.TargetLoop set to
// it. The single-target runs use the VM; the engine leg already holds
// them equal to the tree-walker's. It returns the first disagreement,
// or "".
func AllLoopsDiff(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value) string {
	var refs []interp.Ref
	for _, fn := range prog.Functions() {
		for _, l := range fn.Loops() {
			refs = append(refs, interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(l)})
		}
	}
	tree, te := allLoopsRun(prog, entry, args, interp.EngineTree, refs)
	vm, ve := allLoopsRun(prog, entry, args, interp.EngineVM, refs)
	if te != ve {
		return fmt.Sprintf("all loops: error mismatch: tree=%q vm=%q", te, ve)
	}
	if te != "" {
		return "" // both failed identically; a failed run's trace is partial
	}
	for i, ref := range refs {
		label := fmt.Sprintf("all loops, %s#%d", ref.Fn, ref.Stmt)
		t, v := tree[i], vm[i]
		if fmt.Sprint(t.leaves) != fmt.Sprint(v.leaves) {
			return fmt.Sprintf("%s: iterations per activation: tree=%v vm=%v", label, t.leaves, v.leaves)
		}
		if msg := diffMem("tree", t.mem, "vm", v.mem); msg != "" {
			return label + ": " + msg
		}
		m := interp.NewMachine(prog)
		_, prof, err := m.Run(entry, args(m), interp.Options{Engine: interp.EngineVM, TargetLoop: ref})
		if err != nil {
			return fmt.Sprintf("%s: single-target run failed: %v", label, err)
		}
		last := 0
		if n := len(v.leaves); n > 0 {
			last = v.leaves[n-1]
		}
		if last != prof.TargetIters {
			return fmt.Sprintf("%s: last activation ran %d iterations, single-target TargetIters=%d", label, last, prof.TargetIters)
		}
		if msg := diffMem("all-loops", v.mem, "single-target", prof.Mem); msg != "" {
			return label + ": " + msg
		}
	}
	return ""
}

// diffMem describes the first difference between two memory traces.
func diffMem(an string, a []interp.MemEvent, bn string, b []interp.MemEvent) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("memory event %d: %s=%+v %s=%+v", i, an, a[i], bn, b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("memory trace length: %s=%d %s=%d", an, len(a), bn, len(b))
	}
	return ""
}
