// Package ptest generates parallel unit tests for detected patterns —
// the correctness-validation half of Patty's process model (§2.1).
//
// Because the detection is optimistic, the transformed program may
// race; the paper's answer is to generate a small parallel unit test
// per pattern, pick input data via path-coverage analysis, and hand
// the test to CHESS. This package does exactly that against the
// in-repo CHESS reproduction (package sched):
//
//   - Generate builds a sched model of the pattern's parallel
//     execution — worker threads for data-parallel/master-worker
//     loops, stage threads connected by bounded channels for
//     pipelines, replicas included — whose shared accesses are the
//     statically derived access sets of the loop body. If the
//     detector's independence verdict is wrong anywhere, some
//     interleaving exhibits the race, and the explorer finds it
//     because the unit-test scope keeps the search space small.
//   - SearchInputs implements the paper's coverage-driven input
//     selection: candidate workloads are executed on the interpreter
//     and ranked by branch/statement coverage of the target function.
package ptest

import (
	"fmt"

	"patty/internal/deps"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/sched"
	"patty/internal/source"
)

// Options sizes the generated test.
type Options struct {
	// Threads is the simulated parallel degree (default 2).
	Threads int
	// Iters is the simulated number of stream elements / iterations
	// (default 3). Keep small: the schedule space is exponential.
	Iters int
	// BufCap is the simulated pipeline buffer capacity (default 1).
	BufCap int
	// Replication is the simulated replication degree for replicable
	// pipeline stages (default 2 for the suggested stage).
	Replication int
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Iters <= 0 {
		o.Iters = 3
	}
	if o.BufCap <= 0 {
		o.BufCap = 1
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	return o
}

// UnitTest is one generated parallel unit test.
type UnitTest struct {
	// Name identifies the test (function, loop, pattern).
	Name string
	// Kind echoes the candidate's pattern kind.
	Kind pattern.Kind
	// Body is the sched program modelling the parallel execution.
	Body func(w *sched.World)
	// Description documents what the test models.
	Description string
}

// Run explores the test's interleavings.
func (ut *UnitTest) Run(opt sched.Options) sched.Result {
	return sched.Explore(opt, ut.Body)
}

// access is the abstracted shared-memory footprint of one statement.
type access struct {
	varName string
	offset  int  // subscript offset for affine element accesses
	indexed bool // affine in the iteration index
	write   bool
}

// Generate builds the parallel unit test for a candidate.
func Generate(m *model.Model, c pattern.Candidate, opt Options) (*UnitTest, error) {
	opt = opt.withDefaults()
	fm := m.Func(c.Fn)
	if fm == nil {
		return nil, fmt.Errorf("ptest: unknown function %q", c.Fn)
	}
	var lm *model.LoopModel
	for _, l := range fm.Loops {
		if l.LoopID == c.LoopID {
			lm = l
		}
	}
	if lm == nil {
		return nil, fmt.Errorf("ptest: no loop %d in %s", c.LoopID, c.Fn)
	}

	perStmt := abstractAccesses(lm)
	name := fmt.Sprintf("%s.L%d.%s", c.Fn, c.LoopID, c.Kind)

	switch c.Kind {
	case pattern.DataParallelKind, pattern.MasterWorkerKind:
		return generateWorkers(name, c, lm, perStmt, opt)
	case pattern.PipelineKind:
		return generatePipeline(name, c, lm, perStmt, opt)
	default:
		return nil, fmt.Errorf("ptest: unsupported kind %v", c.Kind)
	}
}

// abstractAccesses maps each top-level body statement to its shared
// accesses: iteration-local symbols, the induction variable and
// recognized reductions are privatized by the transformation and
// excluded.
func abstractAccesses(lm *model.LoopModel) map[int][]access {
	li := lm.Static
	isReduction := make(map[int]bool)
	for _, r := range li.Reductions {
		isReduction[r.StmtID] = true
	}
	local := make(map[*deps.Symbol]bool)
	// Symbols declared inside the body are iteration-private after
	// transformation; detect via each statement's definition position
	// being inside the loop.
	out := make(map[int][]access)
	for _, id := range li.Body {
		if isReduction[id] {
			continue // privatized by the combining runtime
		}
		for _, a := range li.Accesses[id] {
			if a.Sym == nil || a.Sym == li.IndexVar || a.Sym == li.ValueVar {
				continue
			}
			if local[a.Sym] {
				continue
			}
			if a.Sym.Kind == deps.LocalSym && a.Sym.Decl >= lm.Loop.Pos() && a.Sym.Decl <= lm.Loop.End() {
				local[a.Sym] = true
				continue
			}
			acc := access{varName: a.Sym.Name, write: a.Kind == deps.WriteAccess}
			if a.Field != "" {
				acc.varName += "." + a.Field
			}
			if a.Index != nil && a.Index.Affine && a.Index.Var == li.IndexVar {
				acc.indexed = true
				acc.offset = a.Index.Offset
			}
			out[id] = append(out[id], acc)
		}
	}
	return out
}

// cellAccess is one resolved shared access: an index into the test's
// cell list, and whether it writes.
type cellAccess struct {
	cell  int
	write bool
}

// cells is a test's abstract shared memory, resolved once by Generate:
// one named cell per variable or modelled element, in the order the
// test declares them.
type cells struct {
	names []string
	index map[string]int
}

// resolveCells names every abstract cell the statements in order touch
// over iters iterations, in first-touch order.
func resolveCells(perStmt map[int][]access, order []int, iters int) *cells {
	c := &cells{index: make(map[string]int)}
	add := func(name string) {
		if _, ok := c.index[name]; !ok {
			c.index[name] = len(c.names)
			c.names = append(c.names, name)
		}
	}
	for _, id := range order {
		for _, a := range perStmt[id] {
			for i := 0; i < iters; i++ {
				add(cellName(a, i))
			}
		}
	}
	return c
}

// cellName is the cell a accesses in iteration iter.
func cellName(a access, iter int) string {
	if a.indexed {
		return fmt.Sprintf("%s[%d]", a.varName, iter+a.offset)
	}
	return a.varName
}

// accesses lists, for each of iters iterations, the resolved accesses
// of the statements stmts in program order.
func (c *cells) accesses(perStmt map[int][]access, stmts []int, iters int) [][]cellAccess {
	out := make([][]cellAccess, iters)
	for i := range out {
		for _, id := range stmts {
			for _, a := range perStmt[id] {
				cell, ok := c.index[cellName(a, i)]
				if !ok {
					continue // offset outside the modelled window
				}
				out[i] = append(out[i], cellAccess{cell: cell, write: a.write})
			}
		}
	}
	return out
}

// declare declares one sched.Var per cell.
func (c *cells) declare(w *sched.World) []*sched.Var {
	vars := make([]*sched.Var, len(c.names))
	for i, name := range c.names {
		vars[i] = w.Var(name, 0)
	}
	return vars
}

// scriptOp is one operation of a script: a read or write of cell obj
// (a write stores val), a send of val on buffer obj, or its close.
type scriptOp struct {
	kind     scriptKind
	obj, val int
}

type scriptKind uint8

const (
	scriptRead scriptKind = iota
	scriptWrite
	scriptSend
	scriptClose
)

// op is o's operation in a run whose cells are vars and whose buffers
// are chans.
func (o scriptOp) op(vars []*sched.Var, chans []*sched.Chan) sched.Op {
	switch o.kind {
	case scriptRead:
		return sched.Read(vars[o.obj])
	case scriptWrite:
		return sched.Write(vars[o.obj], o.val)
	case scriptSend:
		return sched.Send(chans[o.obj], o.val)
	default:
		return sched.Close(chans[o.obj])
	}
}

// accessOps appends the script operations of iteration iter's
// accesses to ops: a write stores iter+1.
func accessOps(ops []scriptOp, accs []cellAccess, iter int) []scriptOp {
	for _, a := range accs {
		if a.write {
			ops = append(ops, scriptOp{kind: scriptWrite, obj: a.cell, val: iter + 1})
		} else {
			ops = append(ops, scriptOp{kind: scriptRead, obj: a.cell})
		}
	}
	return ops
}

// script is a thread whose operations do not depend on any response:
// Generate builds its list once, and each run's thread walks it over
// that run's cells and buffers.
type script struct {
	ops   []scriptOp
	vars  []*sched.Var
	chans []*sched.Chan
	next  int
}

func (s *script) Step(sched.Response) sched.Op {
	if s.next == len(s.ops) {
		return sched.Exit
	}
	s.next++
	return s.ops[s.next-1].op(s.vars, s.chans)
}

// generateWorkers models the data-parallel / master-worker execution:
// iterations dealt round-robin to worker threads.
func generateWorkers(name string, c pattern.Candidate, lm *model.LoopModel, perStmt map[int][]access, opt Options) (*UnitTest, error) {
	body := lm.Static.Body
	cs := resolveCells(perStmt, body, opt.Iters)
	perIter := cs.accesses(perStmt, body, opt.Iters)
	workers := make([]string, opt.Threads)
	ops := make([][]scriptOp, opt.Threads)
	for t := range workers {
		workers[t] = fmt.Sprintf("worker%d", t)
		for i := t; i < opt.Iters; i += opt.Threads {
			ops[t] = accessOps(ops[t], perIter[i], i)
		}
	}
	return &UnitTest{
		Name: name,
		Kind: c.Kind,
		Description: fmt.Sprintf("%d workers over %d independent iterations of %s",
			opt.Threads, opt.Iters, c.Fn),
		Body: func(w *sched.World) {
			vars := cs.declare(w)
			threads := make([]script, len(workers))
			for t := range threads {
				threads[t] = script{ops: ops[t], vars: vars}
				w.Spawn(workers[t], &threads[t])
			}
		},
	}, nil
}

// pipelineStage is one stage of a generated pipeline test, resolved
// by Generate.
type pipelineStage struct {
	replicas int
	threads  []string     // one name per replica
	done, mu string       // the shutdown counter and its lock
	perItem  [][]scriptOp // the stage's accesses per element
}

// replica is one stage replica's thread: it receives elements until
// its input is closed and drained, performs the stage's accesses on
// each and passes it on; then it counts itself done under the stage's
// lock, and the last replica done closes the stage's output.
type replica struct {
	stage   *pipelineStage
	vars    []*sched.Var
	in, out *sched.Chan
	closer  *sched.Var
	mu      *sched.Mutex
	// pc is the replica's next step; item is the element it holds
	// and next its next access of that element; done is the
	// shutdown count it wrote.
	pc, item, next, done int
}

// A replica's steps.
const (
	replicaRecv   = iota // receive an element
	replicaItem          // process the element received, or shut down
	replicaAccess        // the element's next access, or its send
	replicaRead          // read the shutdown counter under the lock
	replicaWrite         // write it back, plus one
	replicaUnlock        // release the lock
	replicaClose         // the last replica closes the output
	replicaExit
)

func (r *replica) Step(prev sched.Response) sched.Op {
	switch r.pc {
	case replicaRecv:
		r.pc = replicaItem
		return sched.Recv(r.in)
	case replicaItem:
		if !prev.OK {
			r.pc = replicaRead
			return sched.Lock(r.mu)
		}
		r.item, r.next, r.pc = prev.Val, 0, replicaAccess
		fallthrough
	case replicaAccess:
		if ops := r.stage.perItem[r.item]; r.next < len(ops) {
			r.next++
			return ops[r.next-1].op(r.vars, nil)
		}
		r.pc = replicaRecv
		return sched.Send(r.out, r.item)
	case replicaRead:
		r.pc = replicaWrite
		return sched.Read(r.closer)
	case replicaWrite:
		r.done, r.pc = prev.Val+1, replicaUnlock
		return sched.Write(r.closer, r.done)
	case replicaUnlock:
		r.pc = replicaClose
		return sched.Unlock(r.mu)
	case replicaClose:
		r.pc = replicaExit
		if r.done == r.stage.replicas {
			return sched.Close(r.out)
		}
	}
	return sched.Exit
}

// sink is the thread that drains the last buffer.
type sink struct {
	in      *sched.Chan
	started bool
}

func (s *sink) Step(prev sched.Response) sched.Op {
	if s.started && !prev.OK {
		return sched.Exit
	}
	s.started = true
	return sched.Recv(s.in)
}

// pipelineRun holds one run's threads of a pipeline test.
type pipelineRun struct {
	generator script
	replicas  []replica
	sink      sink
}

// generatePipeline models the stage-bound pipeline: one thread per
// stage (r threads for a replicated stage) connected by bounded
// channels carrying element ids.
func generatePipeline(name string, c pattern.Candidate, lm *model.LoopModel, perStmt map[int][]access, opt Options) (*UnitTest, error) {
	stages := c.Stages
	if len(stages) < 2 {
		return nil, fmt.Errorf("ptest: pipeline candidate with %d stages", len(stages))
	}
	var order []int
	for _, st := range stages {
		order = append(order, st.Stmts...)
	}
	cs := resolveCells(perStmt, order, opt.Iters)
	bufs := make([]string, len(stages)+1)
	for i := range bufs {
		bufs[i] = fmt.Sprintf("buf%d", i)
	}
	ps := make([]pipelineStage, len(stages))
	replicas := 0
	for si, st := range stages {
		p := &ps[si]
		p.replicas = 1
		if st.Replicable && st.ReplicationSuggested {
			p.replicas = opt.Replication
		}
		for r := 0; r < p.replicas; r++ {
			p.threads = append(p.threads, fmt.Sprintf("stage%d.%s.r%d", si, st.Label, r))
		}
		replicas += p.replicas
		p.done = fmt.Sprintf("stage%d.done", si)
		p.mu = fmt.Sprintf("stage%d.mu", si)
		for i, accs := range cs.accesses(perStmt, st.Stmts, opt.Iters) {
			p.perItem = append(p.perItem, accessOps(nil, accs, i))
		}
	}
	// The StreamGenerator sends every element id, then closes the
	// first buffer.
	generate := make([]scriptOp, 0, opt.Iters+1)
	for i := 0; i < opt.Iters; i++ {
		generate = append(generate, scriptOp{kind: scriptSend, val: i})
	}
	generate = append(generate, scriptOp{kind: scriptClose})
	return &UnitTest{
		Name: name,
		Kind: c.Kind,
		Description: fmt.Sprintf("%d-stage pipeline over %d elements (replication %d on replicable stages, buffers %d)",
			len(stages), opt.Iters, opt.Replication, opt.BufCap),
		Body: func(w *sched.World) {
			vars := cs.declare(w)

			chans := make([]*sched.Chan, len(bufs))
			for i := range chans {
				chans[i] = w.Chan(bufs[i], opt.BufCap)
			}

			run := &pipelineRun{
				generator: script{ops: generate, chans: chans},
				replicas:  make([]replica, 0, replicas),
				sink:      sink{in: chans[len(chans)-1]},
			}
			w.Spawn("generator", &run.generator)
			for si := range ps {
				p := &ps[si]
				// Replica shutdown coordination is part of the runtime
				// (not the user pattern), so it is lock-protected here
				// just as parrt uses a WaitGroup.
				closer := w.Var(p.done, 0)
				closeMu := w.Mutex(p.mu)
				for _, thread := range p.threads {
					run.replicas = append(run.replicas, replica{
						stage: p, vars: vars, in: chans[si], out: chans[si+1],
						closer: closer, mu: closeMu,
					})
					w.Spawn(thread, &run.replicas[len(run.replicas)-1])
				}
			}
			w.Spawn("sink", &run.sink)
		},
	}, nil
}

// GenerateAll builds unit tests for every candidate in a report.
func GenerateAll(m *model.Model, rep *pattern.Report, opt Options) ([]*UnitTest, error) {
	var out []*UnitTest
	for _, c := range rep.Candidates {
		ut, err := Generate(m, c, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, ut)
	}
	return out, nil
}

// CoverageResult ranks one candidate workload.
type CoverageResult struct {
	Index int
	// Covered / Total statements of the target function.
	Covered, Total int
	// Fraction is Covered/Total.
	Fraction float64
}

// SearchInputs implements the path-coverage input selection: every
// candidate workload runs on the interpreter; workloads are ranked by
// statement coverage of target (a function name). The best workload's
// index is returned first.
func SearchInputs(prog *source.Program, target string, candidates []model.Workload) ([]CoverageResult, error) {
	fn := prog.Func(target)
	if fn == nil {
		return nil, fmt.Errorf("ptest: unknown target %q", target)
	}
	total := fn.NumStmts()
	var results []CoverageResult
	for i, w := range candidates {
		im := interp.NewMachine(prog)
		if w.Configure != nil {
			w.Configure(im)
		}
		_, prof, err := im.Run(w.Entry, w.Args(im), interp.Options{MaxTicks: w.MaxTicks})
		if err != nil {
			return nil, fmt.Errorf("ptest: workload %d: %w", i, err)
		}
		covered := 0
		for id := 0; id < total; id++ {
			if prof.Count[interp.Ref{Fn: target, Stmt: id}] > 0 {
				covered++
			}
		}
		results = append(results, CoverageResult{
			Index: i, Covered: covered, Total: total,
			Fraction: float64(covered) / float64(max(total, 1)),
		})
	}
	// Stable sort by coverage descending.
	for i := 1; i < len(results); i++ {
		for j := i; j > 0 && results[j].Fraction > results[j-1].Fraction; j-- {
			results[j], results[j-1] = results[j-1], results[j]
		}
	}
	return results, nil
}
