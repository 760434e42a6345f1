package parrt

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/obs"
)

// core is what every pattern shares: its name and parameter prefix,
// the registry, the two sequential-fallback parameters and the
// observability instruments. Its run method is the one run skeleton
// and forEach the one chunk runner.
type core struct {
	name   string
	prefix string // "<kind>.<name>", the parameter-key prefix
	params *Params
	seq    *Param // sequentialexecution: always run inline
	minPl  *Param // minparallellen: run inline below this many items
	m      obs.Pattern
}

// newCore registers the sequential-fallback parameters of the pattern
// instance (kind, name) in ps, with minParallel as the default
// inline threshold.
func newCore(kind, name string, ps *Params, minParallel int) core {
	c := core{name: name, prefix: kind + "." + name, params: ps}
	c.seq = ps.Register(Param{
		Key:  c.prefix + "." + keySequential,
		Kind: BoolParam, Min: 0, Max: 1, Value: 0,
	})
	c.minPl = ps.Register(Param{
		Key:  c.prefix + "." + keyMinParallel,
		Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: minParallel,
	})
	return c
}

// Name returns the pattern instance name.
func (c *core) Name() string { return c.name }

// run is the run skeleton of every pattern entry point. It resolves
// the fault policy, opens the fault run and the wall clock, and runs
// inline when the sequential fallback applies to n items. Otherwise
// start launches the parallel body and returns its join and its stall
// diagnostic; run arms the watchdog and joins. When the watchdog fires
// the join is abandoned and joined is false: a stuck body may still
// write its results, so the caller must return none of them.
func (c *core) run(ctx context.Context, n int, inline func(*faultRun), start func(*faultRun) (wait func(), diag func() string)) (errs []*ItemError, err error, joined bool) {
	fr, finish := newFaultRun(ctx, c.name, policyFromParams(c.params, c.prefix), c.m.Faults)
	defer finish()
	if c.m.Enabled() {
		defer func(t time.Time) { c.m.Wall.Add(int64(time.Since(t))) }(time.Now())
	}
	if c.seq.Bool() || n < c.minPl.Value {
		inline(fr)
	} else if !fr.join(start(fr)) {
		return fr.report.Errors(), fr.report.Err(), false
	}
	fr.finalizeCause()
	return fr.report.Errors(), fr.report.Err(), true
}

// forEach is the chunk runner ForCtx, ReduceCtx and
// MasterWorker.ProcessCtx share. It runs chunk over [0, n) through
// the run skeleton: inline as one chunk on worker 0, or on up to
// workers goroutines that take chunks under schedule s with chunk
// size size. chunk reports false once the run is canceled, and the
// worker then takes no more. what names the work in the stall
// diagnostic ("loop", "worker pool").
func (c *core) forEach(ctx context.Context, n, workers int, s Schedule, size int, what string, chunk func(fr *faultRun, w, lo, hi int) bool) ([]*ItemError, error, bool) {
	return c.run(ctx, n, func(fr *faultRun) {
		c.timed(fr, 0, 0, n, chunk)
	}, func(fr *faultRun) (func(), func() string) {
		take := chunker(n, workers, s, size)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for k := 0; ; k++ {
					lo, hi := take(w, k)
					if lo >= hi || !c.timed(fr, w, lo, hi, chunk) {
						return
					}
				}
			}(w)
		}
		return wg.Wait, func() string {
			return fmt.Sprintf("%s blocked: %d/%d items completed on %d worker(s)", what, fr.progress.Load(), n, workers)
		}
	})
}

// timed runs one chunk for worker w and records it: its latency, its
// items and the worker's busy time.
func (c *core) timed(fr *faultRun, w, lo, hi int, chunk func(fr *faultRun, w, lo, hi int) bool) bool {
	if !c.m.Enabled() {
		return chunk(fr, w, lo, hi)
	}
	start := time.Now()
	cont := chunk(fr, w, lo, hi)
	d := int64(time.Since(start))
	c.m.Chunk.Record(d)
	c.m.Items.Add(int64(hi - lo))
	if w < len(c.m.Workers) {
		c.m.Workers[w].Busy.Add(d)
		c.m.Workers[w].Items.Add(int64(hi - lo))
	}
	return cont
}

// chunker returns the chunk hand-out of schedule s over [0, n) for
// workers workers: take(w, k) is worker w's k-th chunk, empty once
// the iteration space is exhausted.
func chunker(n, workers int, s Schedule, size int) (take func(w, k int) (lo, hi int)) {
	if size < 1 {
		size = 1
	}
	switch s {
	case DynamicSchedule:
		var next atomic.Int64
		return func(int, int) (int, int) {
			lo := int(next.Add(int64(size))) - size
			return lo, min(lo+size, n)
		}
	case GuidedSchedule:
		// Geometrically shrinking chunks: half the remaining work per
		// worker, never below size.
		var mu sync.Mutex
		next := 0
		return func(int, int) (int, int) {
			mu.Lock()
			defer mu.Unlock()
			lo := next
			next = min(n, lo+max(size, (n-lo)/(2*workers)))
			return lo, next
		}
	default:
		// One contiguous block per worker.
		return func(w, k int) (int, int) {
			if k > 0 {
				return 0, 0
			}
			return w * n / workers, (w + 1) * n / workers
		}
	}
}

// clampWorkers bounds a worker-count parameter to [1, n].
func clampWorkers(workers, n int) int {
	return max(1, min(workers, n))
}

// faultBlock bounds how many items run inside one panic-capture
// region on the fail-fast fast path, so cancellation is observed with
// bounded latency without paying a defer/recover per item.
const faultBlock = 1024

// chunkBodyCtx runs items lo..hi-1 under the fault policy. An item is
// do(i), a loop body without a result, or else body(i), whose result
// fold folds into acc in index order; a faulted item folds nothing. It
// returns the fold and false once the run is canceled. (For's body is
// do rather than a body wrapped to return a result: the wrapper's
// extra call per iteration cost a fifth of a trivial loop's time.)
func chunkBodyCtx[R any](fr *faultRun, site string, lo, hi int, acc R, do func(int), body func(int) R, fold func(acc R, i int, r R) R) (R, bool) {
	if fr.pol.Kind == FailFast && fr.pol.ItemTimeout <= 0 {
		// Fail-fast fast path: one panic-capture region per block of
		// items instead of per item.
		for blockLo := lo; blockLo < hi; blockLo += faultBlock {
			if fr.canceled() {
				fr.fc.Drained.Add(int64(hi - blockLo))
				return acc, false
			}
			blockHi := min(blockLo+faultBlock, hi)
			cur := blockLo
			if rec, stack, ok := runBlock(blockLo, blockHi, &cur, &acc, do, body, fold); !ok {
				fr.fail(&ItemError{
					Pattern:   fr.pattern,
					Site:      site,
					Item:      cur,
					Attempts:  1,
					Recovered: rec,
					Stack:     stack,
				})
				fr.progress.Add(1)
				return acc, false
			}
			fr.progress.Add(int64(blockHi - blockLo))
		}
		return acc, !fr.canceled()
	}
	for i := lo; i < hi; i++ {
		if fr.canceled() {
			fr.fc.Drained.Add(int64(hi - i))
			return acc, false
		}
		if do != nil {
			fr.item(site, i, func() { do(i) })
			continue
		}
		// r is per item: a timed-out attempt's abandoned goroutine
		// may still write it after the loop moved on.
		var r R
		if fr.item(site, i, func() { r = body(i) }) {
			acc = fold(acc, i, r)
		}
	}
	return acc, !fr.canceled()
}

// runBlock is the fast path's panic-capture region over [lo, hi): cur
// tracks the running item for the error report.
func runBlock[R any](lo, hi int, cur *int, acc *R, do func(int), body func(int) R, fold func(R, int, R) R) (rec any, stack []byte, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			rec, stack = r, stackOf()
		}
	}()
	if do != nil {
		for i := lo; i < hi; i++ {
			*cur = i
			do(i)
		}
		return nil, nil, true
	}
	for i := lo; i < hi; i++ {
		*cur = i
		*acc = fold(*acc, i, body(i))
	}
	return nil, nil, true
}

// partial is one chunk's fold, keyed by the chunk's first index.
type partial[R any] struct {
	lo  int
	acc R
}

// foldInOrder combines the chunk folds of every worker in
// iteration-range order, so an associative combine gives the same
// result, bit for bit, under every worker count and timing.
func foldInOrder[R any](identity R, parts [][]partial[R], combine func(a, b R) R) R {
	var all []partial[R]
	for _, ps := range parts {
		all = append(all, ps...)
	}
	slices.SortFunc(all, func(a, b partial[R]) int { return a.lo - b.lo })
	acc := identity
	for _, p := range all {
		acc = combine(acc, p.acc)
	}
	return acc
}
