package parrt

import (
	"context"
	"runtime"

	"patty/internal/obs"
)

// Schedule selects the iteration-to-worker assignment policy of a
// data-parallel loop, mirroring the classic OpenMP schedules.
type Schedule int

const (
	// StaticSchedule splits the iteration space into one contiguous
	// block per worker up front. Lowest overhead, best for uniform
	// iteration cost.
	StaticSchedule Schedule = iota
	// DynamicSchedule hands out fixed-size chunks from a shared
	// counter. Balances irregular iteration cost at the price of one
	// atomic operation per chunk.
	DynamicSchedule
	// GuidedSchedule hands out geometrically shrinking chunks:
	// large chunks early (low overhead), small chunks late (balance).
	GuidedSchedule
)

// String returns the lower-case schedule name used in tuning files.
func (s Schedule) String() string {
	switch s {
	case StaticSchedule:
		return "static"
	case DynamicSchedule:
		return "dynamic"
	case GuidedSchedule:
		return "guided"
	default:
		return "unknown"
	}
}

// ScheduleNames lists the enum choices for the schedule tuning
// parameter, indexed by Schedule value.
var ScheduleNames = []string{"static", "dynamic", "guided"}

// ParallelFor is the tunable data-parallel loop pattern. The detector
// proves (optimistically) that iterations are independent apart from
// recognized reductions; the transformation rewrites the loop body
// into the Body function.
//
// Tuning parameters (registered under "parallelfor.<name>."):
//
//   - workers:             worker count (1..MaxWorkers)
//   - chunksize:           dynamic/guided chunk granularity
//   - schedule:            static / dynamic / guided
//   - sequentialexecution: run the loop inline
//   - minparallellen:      iteration-count threshold for inline execution
//
// For and Reduce both honour every one of them. The fault policy (see
// FaultPolicy) is read from the same registry under
// parallelfor.<name>.faultpolicy and friends.
type ParallelFor struct {
	core
	maxWorkers int

	workers  *Param
	chunk    *Param
	schedule *Param
}

// NewParallelFor constructs a data-parallel loop instance, registering
// tuning parameters in ps (nil allowed). maxWorkers caps the pool;
// 0 means runtime.NumCPU().
func NewParallelFor(name string, ps *Params, maxWorkers int) *ParallelFor {
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}
	pf := &ParallelFor{core: newCore(obs.KindParallelFor, name, ps, 2), maxWorkers: maxWorkers}
	pf.workers = ps.Register(Param{
		Key:  pf.prefix + ".workers",
		Kind: IntParam, Min: 1, Max: maxWorkers, Value: maxWorkers,
	})
	pf.chunk = ps.Register(Param{
		Key:  pf.prefix + ".chunksize",
		Kind: IntParam, Min: 1, Max: 1 << 16, Step: 512, Value: 64,
	})
	pf.schedule = ps.Register(Param{
		Key:  pf.prefix + ".schedule",
		Kind: EnumParam, Min: 0, Max: len(ScheduleNames) - 1,
		Choices: ScheduleNames, Value: int(StaticSchedule),
	})
	return pf
}

// Instrument registers the loop with a metrics collector as one
// obs.Pattern of kind parallelfor under its name, and returns the
// loop. It records the chunk-latency distribution (the signal behind
// chunk-size tuning: too-small chunks show scheduling overhead,
// too-large ones imbalance), the processed iteration count, per-worker
// items and busy time, wall time and the fault-layer counters. A nil
// collector leaves the loop uninstrumented.
func (pf *ParallelFor) Instrument(c *obs.Collector) *ParallelFor {
	pf.m = c.Pattern(obs.KindParallelFor, pf.name, nil, pf.maxWorkers)
	return pf
}

// loop runs chunk over [0, n) on the chunk runner with workers
// workers, under the loop's schedule and chunk size.
func (pf *ParallelFor) loop(ctx context.Context, n, workers int, chunk func(fr *faultRun, w, lo, hi int) bool) ([]*ItemError, error, bool) {
	return pf.forEach(ctx, n, workers, Schedule(pf.schedule.Value), pf.chunk.Value, "loop", chunk)
}

// For executes body(i) for every i in [0, n) according to the current
// tuning parameters. Iterations must be independent; the caller (the
// code generator) guarantees that via the dependence analysis.
//
// For preserves its historical crash contract: under the default
// fail-fast policy a panicking iteration aborts the loop and the
// captured *ItemError is re-panicked on the caller's goroutine. Use
// ForCtx for cancellation and error reporting.
func (pf *ParallelFor) For(n int, body func(i int)) {
	_, err := pf.ForCtx(context.Background(), n, body)
	if err != nil {
		panic(err)
	}
}

// ForCtx executes body(i) for every i in [0, n) under ctx and the
// loop's fault policy. It returns one *ItemError per faulted iteration
// and the abort cause — nil when the loop completed (possibly with
// skipped iterations under SkipItem/RetryItem), the first *ItemError
// under fail-fast, ctx's cancel cause on external cancellation, or a
// *StallError when the stall watchdog fired.
func (pf *ParallelFor) ForCtx(ctx context.Context, n int, body func(i int)) ([]*ItemError, error) {
	if n <= 0 {
		return nil, nil
	}
	errs, err, _ := pf.loop(ctx, n, clampWorkers(pf.workers.Value, n), func(fr *faultRun, _, lo, hi int) bool {
		_, cont := chunkBodyCtx[struct{}](fr, "body", lo, hi, struct{}{}, body, nil, nil)
		return cont
	})
	return errs, err
}

// Reduce executes a data-parallel reduction: body(i) produces a
// partial value for iteration i, combine folds two partials. combine
// must be associative (the detector only emits Reduce for recognized
// reduction idioms such as sum += f(i)); identity is the neutral
// element. Each chunk folds its iterations in order and the chunk
// folds are combined in iteration-range order, so the result does not
// depend on timing: a float reduction returns the same bits on every
// run with the same parameters.
//
// Reduce preserves its historical crash contract like For; use
// ReduceCtx for cancellation and error reporting.
func Reduce[R any](pf *ParallelFor, n int, identity R, body func(i int) R, combine func(a, b R) R) R {
	acc, _, err := ReduceCtx(context.Background(), pf, n, identity, body, combine)
	if err != nil {
		panic(err)
	}
	return acc
}

// ReduceCtx executes the reduction under ctx and the loop's fault
// policy, on the loop's own schedule and chunk size. A faulted
// iteration contributes nothing (the identity) to the result; it is
// reported via its *ItemError instead. The error follows the same
// convention as ForCtx; after a stall the result is the identity,
// since the stuck iteration's chunk never finished its fold.
func ReduceCtx[R any](ctx context.Context, pf *ParallelFor, n int, identity R, body func(i int) R, combine func(a, b R) R) (R, []*ItemError, error) {
	if n <= 0 {
		return identity, nil, nil
	}
	fold := func(acc R, _ int, r R) R { return combine(acc, r) }
	workers := clampWorkers(pf.workers.Value, n)
	parts := make([][]partial[R], workers)
	errs, err, joined := pf.loop(ctx, n, workers, func(fr *faultRun, w, lo, hi int) bool {
		acc, cont := chunkBodyCtx(fr, "body", lo, hi, identity, nil, body, fold)
		parts[w] = append(parts[w], partial[R]{lo, acc})
		return cont
	})
	if !joined {
		return identity, errs, err
	}
	return foldInOrder(identity, parts, combine), errs, err
}
