package difftest

import (
	"fmt"
	"os"
	"path/filepath"
)

// invalidKinds are divergence classes that mean "this candidate
// program is broken", not "the pipeline is wrong" — the shrinker must
// never accept a reduction step that lands in one of them.
func shrinkAccepts(d *Divergence) bool {
	return d != nil && d.Kind != "harness" && d.Kind != "phase"
}

// removable reports whether dropping Body[i] leaves a well-formed
// program (no later statement reads a temp the dropped statement
// defines).
func removable(body []*Stmt, i int) bool {
	s := body[i]
	if s.Kind != StTemp {
		return true
	}
	for _, later := range body[i+1:] {
		used := false
		for _, ep := range later.exprs() {
			(*ep).walk(func(e *Expr) {
				if e.Kind == ETemp && e.Temp == s.Temp {
					used = true
				}
			})
		}
		if used {
			return false
		}
	}
	return true
}

// Shrink delta-debugs a program that fails check to a minimal
// reproducer: it halves the iteration count, drops body statements and
// collapses expression trees to their operands, keeping each reduction
// only when check still fails. check is the check that found the
// divergence (Check with the options of the run, or an engine gate's
// check); budget caps its calls; 0 means the default of 300.
func Shrink(orig *Prog, check func(*Prog) *Divergence, budget int) (*Prog, *Divergence) {
	if budget <= 0 {
		budget = 300
	}
	best := orig.Clone()
	bestDiv := check(best)
	if !shrinkAccepts(bestDiv) {
		return best, bestDiv
	}
	evals := 0
	try := func(q *Prog) bool {
		if evals >= budget {
			return false
		}
		q = q.Clone()
		q.normalize()
		if len(q.Body) == 0 || q.NAcc+q.NOut == 0 {
			return false
		}
		evals++
		if d := check(q); shrinkAccepts(d) {
			best, bestDiv = q, d
			return true
		}
		return false
	}

	for changed := true; changed && evals < budget; {
		changed = false

		// Fewer iterations: halve, then decrement.
		for best.N > 2 {
			q := best.Clone()
			q.N = best.N / 2
			if q.N < 2 {
				q.N = 2
			}
			if !try(q) {
				break
			}
			changed = true
		}
		for best.N > 2 {
			q := best.Clone()
			q.N = best.N - 1
			if !try(q) {
				break
			}
			changed = true
		}

		// Fewer statements.
		for i := 0; i < len(best.Body); i++ {
			if !removable(best.Body, i) {
				continue
			}
			q := best.Clone()
			q.Body = append(q.Body[:i], q.Body[i+1:]...)
			if try(q) {
				changed = true
				i-- // best shrank; revisit the same index
			}
		}

		// Simpler expressions: replace each binary tree with one of
		// its operands or the literal 1.
		for i := range best.Body {
			slots := best.Body[i].exprs()
			for ei := range slots {
				cur := *slots[ei]
				if cur == nil || cur.Kind != EBin {
					continue
				}
				for _, repl := range []*Expr{cur.X, cur.Y, {Kind: EConst, Val: 1}} {
					q := best.Clone()
					*q.Body[i].exprs()[ei] = repl.clone()
					if try(q) {
						changed = true
						break
					}
				}
			}
		}
	}
	return best, bestDiv
}

// WriteRepro persists one divergence (optionally shrunk) as a
// standalone reproducer file and returns its path. The file carries
// everything needed to replay the failure: the divergence class, the
// generator seed, the sampled config and the full program source.
func WriteRepro(dir string, p *Prog, d *Divergence) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("repro_%s_%x.txt", d.Kind, uint64(d.Seed)))
	content := fmt.Sprintf(
		"difftest reproducer\nkind:   %s\nseed:   %d\nconfig: %s\ndetail: %s\n\n"+
			"replay: patty fuzz -check-seed %d\n\n%s",
		d.Kind, d.Seed, d.Config.String(), d.Detail, d.Seed, p.Render())
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
