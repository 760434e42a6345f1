package difftest

import (
	"fmt"

	"patty/internal/interp"
	"patty/internal/source"
)

// The engine leg: every generated program runs once on the
// tree-walking interpreter and once on the bytecode VM, each run with
// every loop of the program traced at the same time, and the two runs
// must agree bit-for-bit — return values, error text, total virtual
// time, per-statement profile, and for every loop the full load/store
// event stream and the iteration count of each activation. The
// tree-walker is the oracle: its run records, the VM's run checks each
// event against that record as it arrives. Any disagreement is an
// "engine" divergence and shrinks like any other difftest finding.

// loopRefs lists every loop of prog, in function and source order.
func loopRefs(prog *source.Program) []interp.Ref {
	var refs []interp.Ref
	for _, fn := range prog.Functions() {
		for _, l := range fn.Loops() {
			if id := fn.StmtID(l); id >= 0 {
				refs = append(refs, interp.Ref{Fn: fn.Name, Stmt: id})
			}
		}
	}
	return refs
}

// kernelArgs is the argument list generated programs' Kernel takes.
func kernelArgs(n int64) func(*interp.Machine) []interp.Value {
	return func(*interp.Machine) []interp.Value { return []interp.Value{n} }
}

// loopRecord is the tree-walker's sink for one loop: it keeps the
// loop's event stream and each outermost activation's iteration count.
type loopRecord struct {
	mem    []interp.MemEvent
	leaves []int
}

func (r *loopRecord) Access(ev interp.MemEvent) { r.mem = append(r.mem, ev) }
func (r *loopRecord) Leave(iters int)           { r.leaves = append(r.leaves, iters) }

// loopCheck is the VM's sink for one loop. It compares every event and
// activation with the tree-walker's record as it arrives and keeps the
// first difference; it stores no stream of its own.
type loopCheck struct {
	want        *loopRecord
	events, act int
	diff        string
}

func (c *loopCheck) Access(ev interp.MemEvent) {
	if c.diff == "" && c.events < len(c.want.mem) && c.want.mem[c.events] != ev {
		c.diff = fmt.Sprintf("memory event %d: tree=%+v vm=%+v", c.events, c.want.mem[c.events], ev)
	}
	c.events++
}

func (c *loopCheck) Leave(iters int) {
	if c.diff == "" && c.act < len(c.want.leaves) && c.want.leaves[c.act] != iters {
		c.diff = fmt.Sprintf("activation %d ran %d iterations on the tree-walker, %d on the vm",
			c.act, c.want.leaves[c.act], iters)
	}
	c.act++
}

// result is the first difference the check saw, or a difference in
// the number of events or activations.
func (c *loopCheck) result() string {
	switch {
	case c.diff != "":
		return c.diff
	case c.events != len(c.want.mem):
		return fmt.Sprintf("memory trace length: tree=%d vm=%d", len(c.want.mem), c.events)
	case c.act != len(c.want.leaves):
		return fmt.Sprintf("activations: tree=%d vm=%d", len(c.want.leaves), c.act)
	}
	return ""
}

// runResult is what one interpreter run returns.
type runResult struct {
	vals []interp.Value
	prof *interp.Profile
	err  error
}

// runOn runs entry on m.
func runOn(m *interp.Machine, entry string, args func(*interp.Machine) []interp.Value, opt interp.Options) runResult {
	vals, prof, err := m.Run(entry, args(m), opt)
	return runResult{vals, prof, err}
}

// treeRecord is the tree-walker's all-loops run: what the VM's run is
// checked against, and the oracle's values.
type treeRecord struct {
	runResult
	refs  []interp.Ref
	loops []loopRecord // loops[i] is the record of refs[i]
}

// recordTree runs entry on the tree-walker with every loop of prog
// traced, recording each loop's stream and activations.
func recordTree(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value) *treeRecord {
	r := &treeRecord{refs: loopRefs(prog)}
	r.loops = make([]loopRecord, len(r.refs))
	sinks := make(map[interp.Ref]interp.TraceSink, len(r.refs))
	for i, ref := range r.refs {
		sinks[ref] = &r.loops[i]
	}
	m := interp.NewMachine(prog)
	m.TraceLoops(sinks)
	r.runResult = runOn(m, entry, args, interp.Options{Engine: interp.EngineTree})
	return r
}

// checkVM runs entry on the VM with every loop traced, checking each
// loop against r, and returns the first disagreement, or "".
func (r *treeRecord) checkVM(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value) string {
	checks := make([]loopCheck, len(r.refs))
	sinks := make(map[interp.Ref]interp.TraceSink, len(r.refs))
	for i, ref := range r.refs {
		checks[i].want = &r.loops[i]
		sinks[ref] = &checks[i]
	}
	m := interp.NewMachine(prog)
	m.TraceLoops(sinks)
	vm := runOn(m, entry, args, interp.Options{Engine: interp.EngineVM})
	if msg := compareRuns("tree", r.runResult, "vm", vm); msg != "" || r.err != nil {
		return msg // an identical failure leaves partial traces; nothing more to compare
	}
	for i, ref := range r.refs {
		if msg := checks[i].result(); msg != "" {
			return fmt.Sprintf("loop %s#%d: %s", ref.Fn, ref.Stmt, msg)
		}
	}
	return ""
}

// engineLeg runs entry once on each engine with every loop of prog
// traced. It returns the tree-walker's values and error, which are the
// oracle's, and the first disagreement of the VM with them, or "".
func engineLeg(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value) ([]interp.Value, string, error) {
	r := recordTree(prog, entry, args)
	return r.vals, r.checkVM(prog, entry, args), r.err
}

// compareRuns checks the run-wide observables of two runs for exact
// equality: error text, values, virtual time and the profile maps.
func compareRuns(an string, a runResult, bn string, b runResult) string {
	if ae, be := errText(a.err), errText(b.err); ae != be {
		return fmt.Sprintf("error mismatch: %s=%q %s=%q", an, ae, bn, be)
	}
	if len(a.vals) != len(b.vals) {
		return fmt.Sprintf("%s returned %d values, %s %d", an, len(a.vals), bn, len(b.vals))
	}
	for i := range a.vals {
		as, bs := interp.FormatValue(a.vals[i]), interp.FormatValue(b.vals[i])
		if as != bs {
			return fmt.Sprintf("value %d: %s=%s %s=%s", i, an, as, bn, bs)
		}
	}
	if a.err != nil {
		return "" // both failed identically; no profile to compare
	}
	ap, bp := a.prof, b.prof
	if ap.Total != bp.Total {
		return fmt.Sprintf("virtual time: %s=%d %s=%d", an, ap.Total, bn, bp.Total)
	}
	if len(ap.Incl) != len(bp.Incl) || len(ap.Self) != len(bp.Self) || len(ap.Count) != len(bp.Count) {
		return fmt.Sprintf("profile sizes: %s incl/self/count=%d/%d/%d %s=%d/%d/%d",
			an, len(ap.Incl), len(ap.Self), len(ap.Count), bn, len(bp.Incl), len(bp.Self), len(bp.Count))
	}
	for _, m := range []struct {
		name string
		a, b map[interp.Ref]uint64
	}{{"incl", ap.Incl, bp.Incl}, {"self", ap.Self, bp.Self}, {"count", ap.Count, bp.Count}} {
		for r, v := range m.a {
			if w, ok := m.b[r]; !ok || w != v {
				return fmt.Sprintf("%s[%s#%d]: %s=%d %s=%d", m.name, r.Fn, r.Stmt, an, v, bn, w)
			}
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// AllLoopsDiff checks the all-loops profiling run that model creation
// makes against untraced runs and the single-target runs it replaced.
// entry runs once per engine with every loop of the program traced at
// the same time, and the VM must agree with the tree-walker as in the
// engine leg. Then entry runs on each engine untraced, and once with
// each loop as Options.TargetLoop, and every such run must equal the
// tree-walker's all-loops run: the same values, virtual time and
// profile, and for a single-target run the loop's stream as
// Profile.Mem and its last activation's iteration count as
// TargetIters. It returns the first disagreement, or "".
func AllLoopsDiff(prog *source.Program, entry string, args func(*interp.Machine) []interp.Value) string {
	r := recordTree(prog, entry, args)
	if msg := r.checkVM(prog, entry, args); msg != "" {
		return "all loops: " + msg
	}
	if r.err != nil {
		return "" // both failed identically; a failed run's trace is partial
	}
	engines := []interp.Engine{interp.EngineTree, interp.EngineVM}
	for _, eng := range engines {
		untraced := runOn(interp.NewMachine(prog), entry, args, interp.Options{Engine: eng})
		if msg := compareRuns("all-loops", r.runResult, "untraced", untraced); msg != "" {
			return fmt.Sprintf("untraced %s run: %s", eng, msg)
		}
	}
	for i, ref := range r.refs {
		rec := &r.loops[i]
		last := 0
		if n := len(rec.leaves); n > 0 {
			last = rec.leaves[n-1]
		}
		for _, eng := range engines {
			label := fmt.Sprintf("%s#%d, single-target %s run", ref.Fn, ref.Stmt, eng)
			single := runOn(interp.NewMachine(prog), entry, args, interp.Options{Engine: eng, TargetLoop: ref})
			if msg := compareRuns("all-loops", r.runResult, "single-target", single); msg != "" {
				return label + ": " + msg
			}
			if last != single.prof.TargetIters {
				return fmt.Sprintf("%s: all-loops last activation ran %d iterations, TargetIters=%d", label, last, single.prof.TargetIters)
			}
			if msg := diffMem("all-loops", rec.mem, "single-target", single.prof.Mem); msg != "" {
				return label + ": " + msg
			}
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
