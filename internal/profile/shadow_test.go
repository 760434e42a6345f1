package profile

import (
	"errors"
	"go/ast"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

// refPairer is the map-based pairer the shadow memory replaced, kept
// as the reference the differential test compares against: the same
// pairing rules over a map from address to last accesses.
type refPairer struct {
	last map[uint64]refLast
	out  *Pairer // collects the pairs through the shared record
}

type refAccess struct {
	iter, stmt int
	ok         bool
}

type refLast struct{ write, read refAccess }

func newRefPairer() *refPairer {
	return &refPairer{last: make(map[uint64]refLast), out: NewPairer()}
}

func (p *refPairer) Access(ev interp.MemEvent) {
	last := p.last[ev.Addr]
	switch ev.Kind {
	case interp.MemLoad:
		if w := last.write; w.ok && w.iter != ev.Iter {
			p.out.record(w.stmt, ev.TopStmt, Flow, abs(ev.Iter-w.iter))
		}
		last.read = refAccess{ev.Iter, ev.TopStmt, true}
	case interp.MemStore:
		if ev.TopStmt < 0 {
			last = refLast{}
			break
		}
		if w := last.write; w.ok && w.iter != ev.Iter {
			p.out.record(w.stmt, ev.TopStmt, Output, abs(ev.Iter-w.iter))
		}
		if r := last.read; r.ok && r.iter != ev.Iter && r.stmt >= 0 {
			p.out.record(r.stmt, ev.TopStmt, Anti, abs(ev.Iter-r.iter))
		}
		last.write = refAccess{ev.Iter, ev.TopStmt, true}
	}
	p.last[ev.Addr] = last
}

// randomStream draws n accesses over addrs. Iterations start at base
// and mostly advance one at a time, with occasional jumps back to base
// as a re-entered loop's would; a tenth of the accesses come from
// loop-control context (TopStmt -1).
func randomStream(rng *rand.Rand, n int, addrs []uint64, base int) []interp.MemEvent {
	out := make([]interp.MemEvent, n)
	iter := base
	for i := range out {
		switch r := rng.Intn(20); {
		case r < 3:
			iter++
		case r == 3:
			iter = base + rng.Intn(4)
		}
		stmt := rng.Intn(6)
		if rng.Intn(10) == 0 {
			stmt = -1
		}
		kind := interp.MemLoad
		if rng.Intn(2) == 0 {
			kind = interp.MemStore
		}
		out[i] = interp.MemEvent{Addr: addrs[rng.Intn(len(addrs))], Kind: kind, Iter: iter, TopStmt: stmt}
	}
	return out
}

// diffLoop is a one-loop function for AnalyzeLoop's summary; the
// streams are synthetic, so only the carried pairs and iteration count
// are compared.
func diffLoop(t *testing.T) (*source.Function, ast.Stmt) {
	t.Helper()
	prog, err := source.ParseFile("t.go", "package p\nfunc F(n int) {\n\tfor i := 0; i < n; i++ {\n\t}\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("F")
	return fn, fn.Loops()[0]
}

// TestShadowPairerMatchesMap feeds seeded random access streams to the
// shadow-memory pairer and to the map-based reference and requires the
// same carried dependences. The streams straddle page boundaries, touch
// sparse high addresses that grow the page table, mix in loop-control
// loads and resetting stores, and run iterations across 2^31 and up to
// the largest iteration an entry holds; a stream with an iteration
// beyond that must fail with ErrIterOverflow instead of wrapping.
func TestShadowPairerMatchesMap(t *testing.T) {
	fn, loop := diffLoop(t)
	// The last and first entries of neighbouring pages, and the same
	// offsets in several pages and page halves, so that a slip in the
	// page or offset arithmetic aliases two addresses.
	var boundary []uint64
	for _, pg := range []uint64{1, 2, 3, 7} {
		for _, off := range []uint64{0, 1, pageSize/2 + 1, pageSize - 1} {
			boundary = append(boundary, pg*pageSize+off)
		}
	}
	sparse := []uint64{1, 2, 3, 1 << 16, 1<<16 + pageSize, 1<<20 + 5, 1<<22 - 1, 1 << 22}
	small := []uint64{1, 2, 3, 4, 5}
	cases := []struct {
		name     string
		addrs    []uint64
		base     int
		overflow bool
	}{
		{"page-boundary", boundary, 0, false},
		{"sparse-high", sparse, 0, false},
		{"dense-small", small, 0, false},
		{"iter-2^31", boundary, math.MaxInt32 - 2, false},
		{"iter-max", small, maxIter - 40, false},
		{"iter-overflow", small, maxIter - 2, true},
		{"iter-far-overflow", sparse, 1 << 40, true},
	}
	rng := rand.New(rand.NewSource(34))
	for _, tc := range cases {
		for trial := 0; trial < 20; trial++ {
			stream := randomStream(rng, 400, tc.addrs, tc.base)
			overflow := false
			for _, ev := range stream {
				overflow = overflow || ev.Iter > maxIter
			}
			if tc.overflow && !overflow {
				// Force one access past the limit.
				stream[len(stream)-1].Iter = maxIter + 1
				overflow = true
			}
			if !tc.overflow && overflow {
				t.Fatalf("%s: stream left the representable range", tc.name)
			}
			iters := stream[len(stream)-1].Iter
			got, err := AnalyzeLoop(&interp.Profile{Mem: stream, TargetIters: iters}, fn, loop)
			if overflow {
				if !errors.Is(err, ErrIterOverflow) {
					t.Fatalf("%s trial %d: err = %v, want ErrIterOverflow", tc.name, trial, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s trial %d: %v", tc.name, trial, err)
			}
			ref := newRefPairer()
			for _, ev := range stream {
				ref.Access(ev)
			}
			want := ref.out.carried()
			if len(want) == 0 {
				t.Fatalf("%s trial %d: stream carries nothing to compare", tc.name, trial)
			}
			if !reflect.DeepEqual(got.Carried, want) {
				t.Fatalf("%s trial %d: carried\n got  %+v\n want %+v", tc.name, trial, got.Carried, want)
			}
			if got.Iters != iters {
				t.Fatalf("%s trial %d: iters = %d, want %d", tc.name, trial, got.Iters, iters)
			}
		}
	}
}
