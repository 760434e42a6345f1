package parrt

import (
	"context"
	"runtime"
	"sync/atomic"

	"patty/internal/obs"
)

// MasterWorker is the tunable master/worker pattern: a master
// distributes independent tasks to a pool of workers and collects the
// results. It is the second pattern of the paper's catalog and also
// appears nested inside pipelines (Fig. 3d) for stage groups such as
// (A || B || C). It runs on the chunk runner of ParallelFor as a
// dynamic schedule of one task per chunk: each worker takes the next
// task index from a shared counter.
//
// Tuning parameters (registered under "masterworker.<name>."):
//
//   - workers:             pool size (1..MaxWorkers)
//   - orderpreservation:   return results in task submission order
//   - sequentialexecution: run tasks inline on the master
//   - minparallellen:      task-count threshold for inline execution
//
// The fault policy (see FaultPolicy) is read from the same registry
// under masterworker.<name>.faultpolicy and friends.
type MasterWorker[T, R any] struct {
	core
	work       func(T) R
	maxWorkers int

	workers *Param
	order   *Param
}

// NewMasterWorker constructs the pattern around the worker function
// work, registering tuning parameters in ps (nil allowed). maxWorkers
// caps the pool size; 0 means runtime.NumCPU().
func NewMasterWorker[T, R any](name string, ps *Params, maxWorkers int, work func(T) R) *MasterWorker[T, R] {
	if work == nil {
		panic("parrt: NewMasterWorker requires a work function")
	}
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}
	mw := &MasterWorker[T, R]{core: newCore(obs.KindMasterWorker, name, ps, 2), work: work, maxWorkers: maxWorkers}
	mw.workers = ps.Register(Param{
		Key:  mw.prefix + ".workers",
		Kind: IntParam, Min: 1, Max: maxWorkers, Value: maxWorkers,
	})
	mw.order = ps.Register(Param{
		Key:  mw.prefix + "." + keyOrder,
		Kind: BoolParam, Min: 0, Max: 1, Value: 1,
	})
	return mw
}

// Instrument registers the pattern with a metrics collector as one
// obs.Pattern of kind masterworker under its name, and returns the
// pattern. Per worker it records items and busy time, plus the
// task-latency distribution (each task is a chunk of one), wall time,
// the task count and the fault-layer counters. The per-worker series
// expose the imbalance ratio the bottleneck table reports. A nil
// collector leaves the pattern uninstrumented.
func (mw *MasterWorker[T, R]) Instrument(c *obs.Collector) *MasterWorker[T, R] {
	mw.m = c.Pattern(obs.KindMasterWorker, mw.name, nil, mw.maxWorkers)
	return mw
}

// Process applies the worker function to every task and returns the
// results. With OrderPreservation (default) results arrive in task
// order; otherwise in completion order. Sequential fallback follows
// the same rules as Pipeline.Process.
//
// Process preserves its historical crash contract: under the default
// fail-fast policy a panicking task aborts the run and the captured
// *ItemError is re-panicked on the caller's goroutine. Use ProcessCtx
// for cancellation and error reporting.
func (mw *MasterWorker[T, R]) Process(tasks []T) []R {
	out, _, err := mw.ProcessCtx(context.Background(), tasks)
	if err != nil {
		panic(err)
	}
	return out
}

// ProcessCtx applies the worker function to every task under ctx and
// the pattern's fault policy. With OrderPreservation the result slice
// has len(tasks) entries and a faulted/skipped task leaves its slot at
// the zero value (identified by the matching *ItemError); without
// order preservation faulted tasks are simply omitted. The error is
// nil when every task was attempted, the first *ItemError under
// fail-fast, ctx's cancel cause on external cancellation, or a
// *StallError when the stall watchdog fired; after a stall the
// results are nil, since the stuck worker may still write them.
func (mw *MasterWorker[T, R]) ProcessCtx(ctx context.Context, tasks []T) ([]R, []*ItemError, error) {
	out := make([]R, len(tasks))
	var done atomic.Int64 // unordered: the next free slot, in completion order
	store := func(_ R, i int, r R) R {
		out[i] = r
		return r
	}
	ordered := mw.order.Bool()
	if !ordered {
		store = func(_ R, _ int, r R) R {
			out[done.Add(1)-1] = r
			return r
		}
	}
	work := func(i int) R { return mw.work(tasks[i]) }
	var zero R
	errs, err, joined := mw.forEach(ctx, len(tasks), clampWorkers(mw.workers.Value, len(tasks)), DynamicSchedule, 1, "worker pool",
		func(fr *faultRun, _, lo, hi int) bool {
			_, cont := chunkBodyCtx(fr, "worker", lo, hi, zero, nil, work, store)
			return cont
		})
	if !joined {
		return nil, errs, err
	}
	if !ordered {
		out = out[:done.Load()]
	}
	return out, errs, err
}
