// Package profile turns interpreter traces (package interp) into the
// dynamic half of the semantic model: observed loop-carried
// dependences, per-stage runtime shares and hot-loop rankings.
//
// The dependence pairing follows the windowed-pairwise idea of dynamic
// dependence profilers like SD3 (Kim et al., MICRO'10, cited by the
// paper as [34]): every traced address keeps its last writer and last
// reader; a later access from a different iteration forms a carried
// dependence edge between the two top-level loop-body statements.
// Because the analysis sees only executed iterations, its verdicts are
// *optimistic* — exactly the paper's trade-off, backed by generated
// correctness tests instead of proofs.
package profile

import (
	"errors"
	"fmt"
	"go/ast"
	"math"
	"sort"

	"patty/internal/interp"
	"patty/internal/source"
)

// DepKind mirrors the classic dependence taxonomy.
type DepKind int

const (
	// Flow is read-after-write across iterations.
	Flow DepKind = iota
	// Anti is write-after-read across iterations.
	Anti
	// Output is write-after-write across iterations.
	Output
)

// String returns the dependence-kind name.
func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	default:
		return fmt.Sprintf("dep(%d)", int(k))
	}
}

// CarriedPair is one observed loop-carried dependence between two
// top-level body statements (ids are function-local statement ids;
// -1 denotes loop-control context such as the condition).
type CarriedPair struct {
	FromStmt, ToStmt int
	Kind             DepKind
	// MinDistance is the smallest observed iteration distance.
	MinDistance int
	// Count is the number of dynamic instances.
	Count int
}

// LoopProfile is the dynamic summary of one executed loop.
type LoopProfile struct {
	// Loop identifies the profiled loop.
	Loop interp.Ref
	// Iters is the number of completed iterations.
	Iters int
	// InclTime maps each top-level body statement id to its inclusive
	// virtual time.
	InclTime map[int]uint64
	// Share maps each top-level body statement id to its fraction of
	// the summed body time — the signal behind StageReplication and
	// StageFusion decisions.
	Share map[int]float64
	// Count maps each top-level body statement id to executions.
	Count map[int]uint64
	// Carried lists the observed loop-carried dependences.
	Carried []CarriedPair
	// BodyTime is the summed inclusive time of the body statements.
	BodyTime uint64
}

// CarriedBetween reports whether an observed carried dependence links
// the two statements (in either direction).
func (lp *LoopProfile) CarriedBetween(a, b int) bool {
	for _, c := range lp.Carried {
		if (c.FromStmt == a && c.ToStmt == b) || (c.FromStmt == b && c.ToStmt == a) {
			return true
		}
	}
	return false
}

// HasCarried reports whether any carried dependence touches stmt.
func (lp *LoopProfile) HasCarried(stmt int) bool {
	for _, c := range lp.Carried {
		if c.FromStmt == stmt || c.ToStmt == stmt {
			return true
		}
	}
	return false
}

// AnalyzeLoop derives the dynamic summary of the target loop from a
// profile collected with Options.TargetLoop set to that loop, by
// replaying its memory trace through a Pairer.
func AnalyzeLoop(prof *interp.Profile, fn *source.Function, loop ast.Stmt) (*LoopProfile, error) {
	p := NewPairer()
	for _, ev := range prof.Mem {
		p.Access(ev)
	}
	p.Leave(prof.TargetIters)
	return p.Loop(prof, fn, loop)
}

// ErrIterOverflow reports a traced access whose iteration or statement
// id does not fit a shadow entry's 32-bit fields. The pairer stops
// pairing at the first such access rather than let the counter wrap
// and alias an earlier iteration.
var ErrIterOverflow = errors.New("profile: traced access does not fit the shadow memory's 32-bit iteration and statement fields")

// Pairer pairs one loop's memory accesses into carried dependences as
// they happen: it is the interp.TraceSink a traced run streams the
// loop's loads and stores into, so no trace is ever stored. Every
// address keeps its last writer and last reader; an access from a
// different iteration than the last one forms a carried edge between
// the two top-level body statements. Stores from loop-control context
// (TopStmt < 0, e.g. the induction variable's increment) do not seed
// dependences and reset the address: the pattern transformation
// re-implements loop control as the stream generator, so control-only
// state never crosses stages.
//
// The per-address state is shadow memory: interpreter addresses are
// dense (the machine hands them out by bumping a counter from 1), so
// entries live in fixed-size pages indexed by Addr >> pageBits, and a
// page is allocated the first time the loop touches one of its
// addresses.
type Pairer struct {
	pages []*shadowPage
	pairs map[pairKey]*CarriedPair
	iters int
	err   error
}

const (
	pageBits = 10
	pageSize = 1 << pageBits
)

// shadowPage holds the pairing state of pageSize consecutive
// addresses: 16 KB, a small-object allocation.
type shadowPage [pageSize]lastAccess

// lastAccess is one address's pairing state: one entry holds both
// sides, so each access costs one page lookup and one assignment.
type lastAccess struct {
	write, read access
}

// access is one side of an address's state. iter1 is the iteration
// plus one, so a zeroed page means "no access yet".
type access struct {
	iter1 uint32
	stmt  int32
}

// maxIter is the largest iteration an access entry holds.
const maxIter = math.MaxUint32 - 1

type pairKey struct {
	from, to int
	kind     DepKind
}

// NewPairer returns an empty pairer.
func NewPairer() *Pairer {
	return &Pairer{pairs: make(map[pairKey]*CarriedPair)}
}

// Access pairs one load or store with the address's last accesses.
func (p *Pairer) Access(ev interp.MemEvent) {
	if p.err != nil {
		return
	}
	if uint64(ev.Iter) > maxIter || ev.TopStmt != int(int32(ev.TopStmt)) {
		p.err = fmt.Errorf("%w: iteration %d, statement %d", ErrIterOverflow, ev.Iter, ev.TopStmt)
		return
	}
	last := p.entry(ev.Addr)
	cur := access{uint32(ev.Iter) + 1, int32(ev.TopStmt)}
	switch ev.Kind {
	case interp.MemLoad:
		if w := last.write; w.iter1 != 0 && w.iter1 != cur.iter1 {
			p.record(int(w.stmt), ev.TopStmt, Flow, iterDist(w, cur))
		}
		last.read = cur
	case interp.MemStore:
		if ev.TopStmt < 0 {
			// Loop-control store: reset tracking so control state
			// does not seed body dependences.
			*last = lastAccess{}
			return
		}
		if w := last.write; w.iter1 != 0 && w.iter1 != cur.iter1 {
			p.record(int(w.stmt), ev.TopStmt, Output, iterDist(w, cur))
		}
		if r := last.read; r.iter1 != 0 && r.iter1 != cur.iter1 && r.stmt >= 0 {
			p.record(int(r.stmt), ev.TopStmt, Anti, iterDist(r, cur))
		}
		last.write = cur
	}
}

// entry returns addr's shadow entry, growing the page table and
// allocating the page on first touch.
func (p *Pairer) entry(addr uint64) *lastAccess {
	pi := addr >> pageBits
	if pi >= uint64(len(p.pages)) {
		p.pages = append(p.pages, make([]*shadowPage, pi+1-uint64(len(p.pages)))...)
	}
	pg := p.pages[pi]
	if pg == nil {
		pg = new(shadowPage)
		p.pages[pi] = pg
	}
	return &pg[addr&(pageSize-1)]
}

// iterDist is the iteration distance between two accesses.
func iterDist(a, b access) int {
	return abs(int(a.iter1) - int(b.iter1))
}

// Leave records the iteration count of the loop's latest outermost
// activation.
func (p *Pairer) Leave(iters int) { p.iters = iters }

func (p *Pairer) record(from, to int, kind DepKind, dist int) {
	key := pairKey{from, to, kind}
	c, ok := p.pairs[key]
	if !ok {
		c = &CarriedPair{FromStmt: from, ToStmt: to, Kind: kind, MinDistance: dist}
		p.pairs[key] = c
	}
	if dist < c.MinDistance {
		c.MinDistance = dist
	}
	c.Count++
}

// Loop returns the dynamic summary of loop: the pairer's iteration
// count and carried dependences, and each top-level body statement's
// time and count from the run's profile. It fails with ErrIterOverflow
// if an access did not fit the shadow memory.
func (p *Pairer) Loop(prof *interp.Profile, fn *source.Function, loop ast.Stmt) (*LoopProfile, error) {
	if p.err != nil {
		return nil, p.err
	}
	lp := &LoopProfile{
		Loop:     interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)},
		Iters:    p.iters,
		InclTime: make(map[int]uint64),
		Share:    make(map[int]float64),
		Count:    make(map[int]uint64),
	}
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	default:
		return lp, nil
	}

	for _, s := range body.List {
		id := fn.StmtID(s)
		ref := interp.Ref{Fn: fn.Name, Stmt: id}
		lp.InclTime[id] = prof.Incl[ref]
		lp.Count[id] = prof.Count[ref]
		lp.BodyTime += prof.Incl[ref]
	}
	if lp.BodyTime > 0 {
		for id, t := range lp.InclTime {
			lp.Share[id] = float64(t) / float64(lp.BodyTime)
		}
	}
	lp.Carried = p.carried()
	return lp, nil
}

// carried returns the observed pairs sorted by (from, to, kind).
func (p *Pairer) carried() []CarriedPair {
	var out []CarriedPair
	for _, c := range p.pairs {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.FromStmt != b.FromStmt {
			return a.FromStmt < b.FromStmt
		}
		if a.ToStmt != b.ToStmt {
			return a.ToStmt < b.ToStmt
		}
		return a.Kind < b.Kind
	})
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// HotLoop ranks a loop by its share of total execution time — the
// VTune-style hotspot view (paper §6, Parallel Studio's first step).
type HotLoop struct {
	Ref   interp.Ref
	Incl  uint64
	Share float64
}

// HotLoops ranks every loop in the program by inclusive virtual time.
func HotLoops(prof *interp.Profile, prog *source.Program) []HotLoop {
	var out []HotLoop
	for _, fn := range prog.Functions() {
		for _, loop := range fn.Loops() {
			ref := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
			incl, ok := prof.Incl[ref]
			if !ok || incl == 0 {
				continue
			}
			share := 0.0
			if prof.Total > 0 {
				share = float64(incl) / float64(prof.Total)
			}
			out = append(out, HotLoop{Ref: ref, Incl: incl, Share: share})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Incl != out[j].Incl {
			return out[i].Incl > out[j].Incl
		}
		if out[i].Ref.Fn != out[j].Ref.Fn {
			return out[i].Ref.Fn < out[j].Ref.Fn
		}
		return out[i].Ref.Stmt < out[j].Ref.Stmt
	})
	return out
}
