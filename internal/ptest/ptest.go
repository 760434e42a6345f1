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

	perStmt := abstractAccesses(fm.Fn, lm)
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
func abstractAccesses(fn *source.Function, lm *model.LoopModel) map[int][]access {
	li := lm.Static
	res := deps.Resolve(fn) // same resolver rules as the analysis
	_ = res
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

// replay performs one iteration's resolved accesses.
func replay(ctx *sched.Context, vars []*sched.Var, accs []cellAccess, iter int) {
	for _, a := range accs {
		if a.write {
			ctx.Write(vars[a.cell], iter+1)
		} else {
			ctx.Read(vars[a.cell])
		}
	}
}

// generateWorkers models the data-parallel / master-worker execution:
// iterations dealt round-robin to worker threads.
func generateWorkers(name string, c pattern.Candidate, lm *model.LoopModel, perStmt map[int][]access, opt Options) (*UnitTest, error) {
	body := lm.Static.Body
	cs := resolveCells(perStmt, body, opt.Iters)
	perIter := cs.accesses(perStmt, body, opt.Iters)
	workers := make([]string, opt.Threads)
	for t := range workers {
		workers[t] = fmt.Sprintf("worker%d", t)
	}
	return &UnitTest{
		Name: name,
		Kind: c.Kind,
		Description: fmt.Sprintf("%d workers over %d independent iterations of %s",
			opt.Threads, opt.Iters, c.Fn),
		Body: func(w *sched.World) {
			vars := cs.declare(w)
			for t := 0; t < opt.Threads; t++ {
				tid := t
				w.Spawn(workers[tid], func(ctx *sched.Context) {
					for i := tid; i < opt.Iters; i += opt.Threads {
						replay(ctx, vars, perIter[i], i)
					}
				})
			}
		},
	}, nil
}

// pipelineStage is one stage of a generated pipeline test, resolved
// by Generate.
type pipelineStage struct {
	replicas int
	threads  []string       // one name per replica
	done, mu string         // the shutdown counter and its lock
	perItem  [][]cellAccess // the stage's accesses per element
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
	for si, st := range stages {
		p := &ps[si]
		p.replicas = 1
		if st.Replicable && st.ReplicationSuggested {
			p.replicas = opt.Replication
		}
		for r := 0; r < p.replicas; r++ {
			p.threads = append(p.threads, fmt.Sprintf("stage%d.%s.r%d", si, st.Label, r))
		}
		p.done = fmt.Sprintf("stage%d.done", si)
		p.mu = fmt.Sprintf("stage%d.mu", si)
		p.perItem = cs.accesses(perStmt, st.Stmts, opt.Iters)
	}
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

			// StreamGenerator.
			w.Spawn("generator", func(ctx *sched.Context) {
				for i := 0; i < opt.Iters; i++ {
					ctx.Send(chans[0], i)
				}
				ctx.Close(chans[0])
			})

			for si := range ps {
				p := &ps[si]
				in, out := chans[si], chans[si+1]
				// Replica shutdown coordination is part of the runtime
				// (not the user pattern), so it is lock-protected here
				// just as parrt uses a WaitGroup.
				closer := w.Var(p.done, 0)
				closeMu := w.Mutex(p.mu)
				for _, thread := range p.threads {
					w.Spawn(thread, func(ctx *sched.Context) {
						for {
							item, ok := ctx.Recv(in)
							if !ok {
								break
							}
							replay(ctx, vars, p.perItem[item], item)
							ctx.Send(out, item)
						}
						// The last replica closes downstream.
						ctx.Lock(closeMu)
						done := ctx.Read(closer) + 1
						ctx.Write(closer, done)
						ctx.Unlock(closeMu)
						if done == p.replicas {
							ctx.Close(out)
						}
					})
				}
			}

			// Sink drains the last buffer.
			w.Spawn("sink", func(ctx *sched.Context) {
				for {
					if _, ok := ctx.Recv(chans[len(chans)-1]); !ok {
						return
					}
				}
			})
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
