package difftest

import (
	"context"
	"fmt"
	"go/ast"
	"runtime"
	"strings"

	"patty/internal/faultinject"
	"patty/internal/parrt"
	"patty/internal/pattern"
	"patty/internal/source"
	"patty/internal/tadl"
)

// state is the native mutable store a program run owns: filled input
// slices, zeroed output slices and initialized scalars. The parallel
// executor shares one state across workers exactly like the
// transformed code shares the original program's variables — so real
// detector mistakes become real races and real wrong answers.
type state struct {
	ins  [][]int64
	outs [][]int64
	accs []int64
}

func newState(p *Prog) *state {
	st := &state{}
	for s := 0; s < p.NIn; s++ {
		sl := make([]int64, p.N+2)
		for i := range sl {
			sl[i] = fillVal(s, i)
		}
		st.ins = append(st.ins, sl)
	}
	for o := 0; o < p.NOut; o++ {
		st.outs = append(st.outs, make([]int64, p.N+2))
	}
	st.accs = append([]int64(nil), p.AccInit...)
	return st
}

func (st *state) equal(other *state) bool {
	for k := range st.accs {
		if st.accs[k] != other.accs[k] {
			return false
		}
	}
	for k := range st.outs {
		for i := range st.outs[k] {
			if st.outs[k][i] != other.outs[k][i] {
				return false
			}
		}
	}
	return true
}

// diff describes the first mismatch between two states (got vs want).
func (st *state) diff(want *state) string {
	for k := range st.accs {
		if st.accs[k] != want.accs[k] {
			return fmt.Sprintf("acc%d: got %d want %d", k, st.accs[k], want.accs[k])
		}
	}
	for k := range st.outs {
		for i := range st.outs[k] {
			if st.outs[k][i] != want.outs[k][i] {
				return fmt.Sprintf("out%d[%d]: got %d want %d", k, i, st.outs[k][i], want.outs[k][i])
			}
		}
	}
	return "states equal"
}

func evalExpr(e *Expr, st *state, i int, temps []int64) int64 {
	switch e.Kind {
	case EConst:
		return e.Val
	case EIndex:
		return int64(i)
	case ELoad:
		return st.ins[e.Slice][i+e.Off]
	case ETemp:
		return temps[e.Temp]
	case EBin:
		return e.Op.apply(evalExpr(e.X, st, i, temps), evalExpr(e.Y, st, i, temps))
	}
	panic("difftest: unknown expr kind")
}

// evalStmts executes a slice of body statements for element i. A
// triggered continue stops the remaining statements of the slice
// (callers arrange PLCD glue so that equals skipping the rest of the
// iteration); a triggered break returns true.
func evalStmts(stmts []*Stmt, st *state, i int, temps []int64) (brk bool) {
	for _, s := range stmts {
		switch s.Kind {
		case StTemp:
			temps[s.Temp] = evalExpr(s.E, st, i, temps)
		case StWrite:
			st.outs[s.Out][i] = evalExpr(s.E, st, i, temps)
		case StRecur:
			st.outs[s.Out][i+1] = s.Op.apply(st.outs[s.Out][i], evalExpr(s.E, st, i, temps))
		case StReduce:
			st.accs[s.Acc] = s.Op.apply(st.accs[s.Acc], evalExpr(s.E, st, i, temps))
		case StCarry:
			v := evalExpr(s.E, st, i, temps)
			if s.K == 0 {
				st.accs[s.Acc] = 0 + st.accs[s.Acc] + v
			} else {
				st.accs[s.Acc] = st.accs[s.Acc]*s.K + v
			}
		case StIf:
			if evalExpr(s.Cond, st, i, temps)&s.K == s.CmpK {
				st.outs[s.Out][i] = evalExpr(s.E, st, i, temps)
			} else {
				st.outs[s.Out][i] = evalExpr(s.E2, st, i, temps)
			}
		case StContinueIf:
			if evalExpr(s.E, st, i, temps)&s.K == s.CmpK {
				return false
			}
		case StBreakIf:
			if evalExpr(s.E, st, i, temps)&s.K == s.CmpK {
				return true
			}
		default:
			panic("difftest: unknown stmt kind")
		}
	}
	return false
}

// liveCarried reports whether any loop-carried dependence actually
// MATERIALIZES over the iteration space [0, N). The distinction
// matters under dynamic model enrichment: the detector observes the
// memory trace of the profiling run, so a statically-carried statement
// whose cross-iteration pairing never happens — dead behind a
// conditional continue, or executing only once — is legitimately
// invisible, and classifying the loop independent is sound FOR THAT
// WORKLOAD (the paper's optimism; generated tests guard the residual
// risk). A scalar recurrence pairs once it executes in two distinct
// iterations; an array recurrence out[i+1] = out[i] op e pairs once
// two consecutive iterations both execute it. Conditions read only the
// index, input loads and intra-iteration temps — never accumulators —
// so skipping the carried updates cannot change which statements run.
func (p *Prog) liveCarried() bool {
	st := newState(p)
	temps := make([]int64, p.NTemp)
	carryRuns := make([]int, len(p.Body)) // executions per StCarry stmt
	recurPrev := make([]int, len(p.Body)) // last iter a StRecur stmt ran
	for k := range recurPrev {
		recurPrev[k] = -2 // sentinel below any valid i-1
	}
	for i := 0; i < p.N; i++ {
	body:
		for k, s := range p.Body {
			switch s.Kind {
			case StCarry:
				carryRuns[k]++
				if carryRuns[k] >= 2 {
					return true
				}
			case StRecur:
				if recurPrev[k] == i-1 {
					return true
				}
				recurPrev[k] = i
			case StContinueIf:
				if evalExpr(s.E, st, i, temps)&s.K == s.CmpK {
					break body
				}
			case StBreakIf:
				if evalExpr(s.E, st, i, temps)&s.K == s.CmpK {
					return false
				}
			default:
				evalStmts([]*Stmt{s}, st, i, temps)
			}
		}
	}
	return false
}

// runSeqSkipping executes the program natively, skipping the given
// iterations entirely. This is the reference for a SkipItem run under
// fatal fault injection: faults fire at the pattern entry, before any
// user statement, so a dropped element executes nothing at all.
func (p *Prog) runSeqSkipping(skip map[int]bool) *state {
	st := newState(p)
	temps := make([]int64, p.NTemp)
	for i := 0; i < p.N; i++ {
		if skip[i] {
			continue
		}
		if evalStmts(p.Body, st, i, temps) {
			break
		}
	}
	return st
}

// runSeq executes the program natively in the given iteration order
// (nil: 0..N-1). This is the harness's reference next to the
// interpreter oracle, and — with a permuted order — the deterministic
// independence check for forall/master verdicts.
func (p *Prog) runSeq(order []int) *state {
	st := newState(p)
	temps := make([]int64, p.NTemp)
	if order == nil {
		for i := 0; i < p.N; i++ {
			if evalStmts(p.Body, st, i, temps) {
				break
			}
		}
		return st
	}
	for _, i := range order {
		if evalStmts(p.Body, st, i, temps) {
			break
		}
	}
	return st
}

// Config is one sampled tuning-parameter assignment.
type Config struct {
	Name   string
	Assign map[string]int
}

func (c Config) String() string {
	if len(c.Assign) == 0 {
		return c.Name + " (defaults)"
	}
	var parts []string
	for k, v := range c.Assign {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	// Deterministic order for repro files.
	for a := 1; a < len(parts); a++ {
		for b := a; b > 0 && parts[b] < parts[b-1]; b-- {
			parts[b], parts[b-1] = parts[b-1], parts[b]
		}
	}
	return c.Name + ": " + strings.Join(parts, " ")
}

// felem is the stream envelope of the pipeline execution: the element
// index plus its iteration-local temporaries (the stream variables the
// transformer would privatize into the generated envelope struct).
type felem struct {
	idx   int
	temps []int64
}

// loopBodyList returns the top-level statements of a for/range loop.
func loopBodyList(loop ast.Stmt) []ast.Stmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body.List
	case *ast.RangeStmt:
		return l.Body.List
	}
	return nil
}

// faultSite is the injection-site name shared by every pattern kind:
// the fuzzer injects at the pattern entry (loop body, work function,
// first pipeline stage), so the oracle for "which items survive a
// SkipItem run" is simply FatalItems(faultSite, N).
const faultSite = "body"

// runPattern executes the program's target loop on the real parrt
// runtime as the candidate and config dictate, sharing one native
// state the way the transformed code shares program variables.
func runPattern(p *Prog, cand *pattern.Candidate, fn *source.Function, loop ast.Stmt, patName string, cfg Config) (*state, error) {
	st, _, err := runPatternInj(p, cand, fn, loop, patName, cfg, nil)
	return st, err
}

// runPatternInj is runPattern with deterministic fault injection: when
// inj is non-nil its Enter hook runs at the pattern entry for every
// element, before any program statement — a skipped or retried element
// therefore has no partial side effects on the shared state. It runs
// on the context-aware entry points, so a fail-fast abort (the default
// policy) comes back as an error rather than a crashed worker.
func runPatternInj(p *Prog, cand *pattern.Candidate, fn *source.Function, loop ast.Stmt, patName string, cfg Config, inj *faultinject.Injector) (st *state, ierrs []*parrt.ItemError, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, ierrs, err = nil, nil, fmt.Errorf("panic in parallel execution: %v", r)
		}
	}()
	ctx := context.Background()
	ps := parrt.NewParams()
	ps.Apply(cfg.Assign)
	st = newState(p)

	switch cand.Kind {
	case pattern.DataParallelKind:
		pf := parrt.NewParallelFor(patName, ps, runtime.NumCPU())
		var red *Stmt
		var rest []*Stmt
		for _, s := range p.Body {
			if red == nil && s.Kind == StReduce && len(cand.Reductions) > 0 {
				red = s
				continue
			}
			rest = append(rest, s)
		}
		if red != nil {
			// Mirror genReduce: the loop body minus the reduction
			// statement computes the per-element contribution; the
			// runtime folds contributions with the reduction operator
			// and the original accumulator absorbs the total. A
			// faulted element contributes the identity.
			total, es, rerr := parrt.ReduceCtx(ctx, pf, p.N, red.Op.identity(), func(i int) int64 {
				inj.Enter(faultSite, i)
				temps := make([]int64, p.NTemp)
				evalStmts(rest, st, i, temps)
				return evalExpr(red.E, st, i, temps)
			}, red.Op.apply)
			if rerr != nil {
				return nil, es, fmt.Errorf("panic in parallel execution: %v", rerr)
			}
			st.accs[red.Acc] = red.Op.apply(st.accs[red.Acc], total)
			return st, es, nil
		}
		es, ferr := pf.ForCtx(ctx, p.N, func(i int) {
			inj.Enter(faultSite, i)
			temps := make([]int64, p.NTemp)
			evalStmts(p.Body, st, i, temps)
		})
		if ferr != nil {
			return nil, es, fmt.Errorf("panic in parallel execution: %v", ferr)
		}
		return st, es, nil

	case pattern.MasterWorkerKind:
		mw := parrt.NewMasterWorker(patName, ps, runtime.NumCPU(), func(i int) int {
			inj.Enter(faultSite, i)
			temps := make([]int64, p.NTemp)
			evalStmts(p.Body, st, i, temps)
			return 0
		})
		tasks := make([]int, p.N)
		for i := range tasks {
			tasks[i] = i
		}
		_, es, merr := mw.ProcessCtx(ctx, tasks)
		if merr != nil {
			return nil, es, fmt.Errorf("panic in parallel execution: %v", merr)
		}
		return st, es, nil

	case pattern.PipelineKind:
		groups, gerr := tadl.Stages(cand.Annotation.Arch)
		if gerr != nil {
			return nil, nil, gerr
		}
		// Bind candidate stages to IR statements via the loop body's
		// top-level statement order.
		bodyList := loopBodyList(loop)
		if len(bodyList) != len(p.Body) {
			return nil, nil, fmt.Errorf("difftest: loop body has %d statements, IR has %d", len(bodyList), len(p.Body))
		}
		idToIdx := make(map[int]int, len(bodyList))
		for k, s := range bodyList {
			idToIdx[fn.StmtID(s)] = k
		}
		stmtsOfLabel := make(map[string][]*Stmt)
		for _, cs := range cand.Stages {
			for _, id := range cs.Stmts {
				k, ok := idToIdx[id]
				if !ok {
					return nil, nil, fmt.Errorf("difftest: stage stmt %d is not a top-level body statement", id)
				}
				stmtsOfLabel[cs.Label] = append(stmtsOfLabel[cs.Label], p.Body[k])
			}
		}
		mkFn := func(stmts []*Stmt) parrt.StageFunc[felem] {
			return func(e *felem) {
				evalStmts(stmts, st, e.idx, e.temps)
			}
		}
		var stages []parrt.Stage[felem]
		for _, grp := range groups {
			var fns []parrt.StageFunc[felem]
			for _, l := range grp.Labels {
				if len(stmtsOfLabel[l]) == 0 {
					return nil, nil, fmt.Errorf("difftest: stage %s has no statements", l)
				}
				fns = append(fns, mkFn(stmtsOfLabel[l]))
			}
			if len(fns) == 1 {
				stages = append(stages, parrt.Stage[felem]{Name: grp.Name(), Fn: fns[0], Replicable: grp.Replicable})
			} else {
				stages = append(stages, parrt.Group(grp.Name(), grp.Replicable, fns...))
			}
		}
		// Inject only at the FIRST stage: a faulted item becomes a
		// tombstone before any program statement has run, so a SkipItem
		// run matches runSeqSkipping exactly even for carried stages.
		if inj != nil {
			inner := stages[0].Fn
			stages[0].Fn = func(e *felem) {
				inj.Enter(faultSite, e.idx)
				inner(e)
			}
		}
		pl := parrt.NewPipeline(patName, ps, stages...)
		items := make([]*felem, p.N)
		for i := range items {
			items[i] = &felem{idx: i, temps: make([]int64, p.NTemp)}
		}
		_, es, perr := pl.ProcessCtx(ctx, items)
		if perr != nil {
			return nil, es, fmt.Errorf("panic in parallel execution: %v", perr)
		}
		return st, es, nil
	}
	return nil, nil, fmt.Errorf("difftest: unknown candidate kind %v", cand.Kind)
}
