package parrt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/obs"
)

// MasterWorker is the tunable master/worker pattern: a master
// distributes independent tasks to a pool of workers and collects the
// results. It is the second pattern of the paper's catalog and also
// appears nested inside pipelines (Fig. 3d) for stage groups such as
// (A || B || C).
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
	name       string
	work       func(T) R
	maxWorkers int
	params     *Params

	workers *Param
	order   *Param
	seq     *Param
	minPl   *Param

	items     stageCounters
	busyTotal time.Duration
	m         obs.Pattern // zero until Instrument
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
	prefix := "masterworker." + name
	mw := &MasterWorker[T, R]{name: name, work: work, maxWorkers: maxWorkers, params: ps}
	mw.workers = ps.Register(Param{
		Key:  prefix + ".workers",
		Kind: IntParam, Min: 1, Max: maxWorkers, Value: maxWorkers,
	})
	mw.order = ps.Register(Param{
		Key:  prefix + "." + keyOrder,
		Kind: BoolParam, Min: 0, Max: 1, Value: 1,
	})
	mw.seq = ps.Register(Param{
		Key:  prefix + "." + keySequential,
		Kind: BoolParam, Min: 0, Max: 1, Value: 0,
	})
	mw.minPl = ps.Register(Param{
		Key:  prefix + "." + keyMinParallel,
		Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: 2,
	})
	return mw
}

// Instrument registers the pattern with a metrics collector as one
// obs.Pattern of kind masterworker under its name, and returns the
// pattern. Per worker it records items, busy time and idle time (time
// blocked waiting for the next task), plus wall time, the task count
// and the fault-layer counters. The per-worker series expose the
// imbalance ratio the bottleneck table reports. A nil collector leaves
// the pattern uninstrumented.
func (mw *MasterWorker[T, R]) Instrument(c *obs.Collector) *MasterWorker[T, R] {
	mw.m = c.Pattern(obs.KindMasterWorker, mw.name, nil, mw.maxWorkers)
	return mw
}

// Name returns the pattern instance name.
func (mw *MasterWorker[T, R]) Name() string { return mw.name }

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
// *StallError when the stall watchdog fired.
func (mw *MasterWorker[T, R]) ProcessCtx(ctx context.Context, tasks []T) ([]R, []*ItemError, error) {
	pol := policyFromParams(mw.params, "masterworker."+mw.name)
	fr, finish := newFaultRun(ctx, mw.name, pol, mw.m.Faults)
	defer finish()
	var wallStart time.Time
	if mw.m.Enabled() {
		wallStart = time.Now()
		mw.m.Items.Add(int64(len(tasks)))
		defer func() { mw.m.Wall.Add(int64(time.Since(wallStart))) }()
	}
	if mw.seq.Bool() || len(tasks) < mw.minPl.Value {
		out := mw.processSequentialCtx(fr, tasks)
		fr.finalizeCause()
		return out, fr.report.Errors(), fr.report.Err()
	}
	n := mw.workers.Value
	if n < 1 {
		n = 1
	}
	if n > len(tasks) {
		n = len(tasks)
	}
	type job struct {
		idx  int
		task T
	}
	type done struct {
		idx int
		res R
	}
	jobs := make(chan job, len(tasks))
	for i, t := range tasks {
		jobs <- job{i, t}
	}
	close(jobs)
	// Buffered to len(tasks): worker sends never block, so a canceled
	// run drains by simply letting the workers run off the closed jobs
	// channel.
	results := make(chan done, len(tasks))
	var completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			var wk obs.Worker
			if mw.m.Enabled() {
				wk = mw.m.Workers[w]
			}
			for {
				idleStart := time.Now()
				j, ok := <-jobs
				if !ok {
					return
				}
				wk.Idle.Add(int64(time.Since(idleStart)))
				if fr.canceled() {
					fr.fc.Drained.Inc()
					continue
				}
				busyStart := time.Now()
				var res R
				okItem := fr.item("worker", j.idx, func() { res = mw.work(j.task) })
				wk.Busy.Add(int64(time.Since(busyStart)))
				if okItem {
					results <- done{j.idx, res}
					mw.items.items.Add(1)
					completed.Add(1)
					wk.Items.Inc()
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	stopWatchdog := fr.startWatchdog(func() string {
		return fmt.Sprintf("worker pool blocked: %d/%d tasks completed on %d worker(s)",
			completed.Load(), len(tasks), n)
	})
	defer stopWatchdog()
	ordered := mw.order.Bool()
	var out []R
	if ordered {
		out = make([]R, len(tasks))
	} else {
		out = make([]R, 0, len(tasks))
	}
	store := func(d done) {
		if ordered {
			out[d.idx] = d.res
		} else {
			out = append(out, d.res)
		}
	}
collect:
	for {
		select {
		case d, ok := <-results:
			if !ok {
				break collect
			}
			store(d)
		case <-fr.ctx.Done():
			if _, stalled := context.Cause(fr.ctx).(*StallError); stalled {
				// A stuck work function may never return; abandon the
				// join instead of hanging with it.
				return out, fr.report.Errors(), fr.report.Err()
			}
			// Cooperative drain: the workers run off the closed jobs
			// channel and the results channel closes.
			for d := range results {
				store(d)
			}
			break collect
		}
	}
	fr.finalizeCause()
	return out, fr.report.Errors(), fr.report.Err()
}

// processSequentialCtx is the inline fallback under the fault layer.
func (mw *MasterWorker[T, R]) processSequentialCtx(fr *faultRun, tasks []T) []R {
	ordered := mw.order.Bool()
	var out []R
	if ordered {
		out = make([]R, len(tasks))
	} else {
		out = make([]R, 0, len(tasks))
	}
	for i, t := range tasks {
		if fr.canceled() {
			fr.fc.Drained.Add(int64(len(tasks) - i))
			break
		}
		i, t := i, t
		start := time.Now()
		var res R
		ok := fr.item("worker", i, func() { res = mw.work(t) })
		if mw.m.Enabled() {
			mw.m.Workers[0].Busy.Add(int64(time.Since(start)))
		}
		if !ok {
			continue
		}
		if ordered {
			out[i] = res
		} else {
			out = append(out, res)
		}
		mw.items.items.Add(1)
		if mw.m.Enabled() {
			mw.m.Workers[0].Items.Inc()
		}
	}
	return out
}

// ItemsProcessed reports the number of tasks completed so far.
func (mw *MasterWorker[T, R]) ItemsProcessed() int64 { return mw.items.items.Load() }
