package parrt

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/obs"
)

// StageFunc processes one stream element in place. Elements are passed
// by pointer along the pipeline so that parallel sub-stages (see Group)
// can fill disjoint parts of the same element.
type StageFunc[T any] func(*T)

// Stage describes one pipeline stage before tuning. The detector
// (package pattern) marks a stage Replicable when it has no side
// effects on other stream elements (paper §2.2, StageReplication);
// only replicable stages ever execute with replication > 1.
type Stage[T any] struct {
	// Name identifies the stage; it appears in tuning-parameter keys
	// and statistics. TADL single-letter labels ("A", "B", ...) are
	// typical for generated code.
	Name string
	// Fn is the stage body.
	Fn StageFunc[T]
	// Replicable marks the stage safe for parallel self-execution on
	// consecutive stream elements.
	Replicable bool
	// MaxReplication caps the replication tuning parameter; 0 means
	// runtime.NumCPU().
	MaxReplication int
}

// Group builds a stage whose body executes the given sub-functions
// concurrently on the same element and waits for all of them. This is
// the hierarchical master/worker-in-a-pipeline shape of paper Fig. 3d,
// where crop, histogram and oil filters run in parallel per image. The
// sub-functions must write disjoint parts of the element; the detector
// establishes that from the data-flow analysis (PLDS).
//
// A panicking sub-function is re-panicked on the stage goroutine once
// all siblings finished, so the enclosing pattern's fault policy sees
// one fault per element rather than a crashed process.
func Group[T any](name string, replicable bool, fns ...StageFunc[T]) Stage[T] {
	return Stage[T]{
		Name:       name,
		Replicable: replicable,
		Fn: func(v *T) {
			if len(fns) == 1 {
				fns[0](v)
				return
			}
			var wg sync.WaitGroup
			var rec atomic.Value
			wg.Add(len(fns))
			for _, fn := range fns {
				go func(fn StageFunc[T]) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							rec.CompareAndSwap(nil, &r)
						}
					}()
					fn(v)
				}(fn)
			}
			wg.Wait()
			if r := rec.Load(); r != nil {
				panic(*r.(*any))
			}
		},
	}
}

// StageStats reports per-stage runtime behaviour, the signal behind the
// paper's runtime-distribution visualization (Fig. 4c) and the
// auto-tuner's stage-imbalance feedback.
type StageStats struct {
	Name  string
	Items int64         // elements processed
	Busy  time.Duration // accumulated in-stage processing time
}

type stageCounters struct {
	items     atomic.Int64
	busyNanos atomic.Int64
}

// Pipeline is the tunable software-pipeline pattern. Stages are bound
// to goroutines ("stage binding", paper §2.2) and connected by bounded
// buffers. The zero value is not usable; construct with NewPipeline.
type Pipeline[T any] struct {
	name   string
	stages []Stage[T]
	params *Params

	repl  []*Param // per stage: replication degree
	order []*Param // per stage: order preservation after replication
	fuse  []*Param // per adjacent pair (i, i+1): execute in one goroutine
	seq   *Param   // global: force sequential execution
	buf   *Param   // global: inter-stage buffer capacity
	minPl *Param   // global: stream-length threshold below which Process runs sequentially

	counters []stageCounters
	// m holds the observability instruments; zero (every instrument
	// nil, each record a one-branch no-op) until Instrument.
	m obs.Pattern
}

// Pipeline tuning-parameter key suffixes.
const (
	keyReplication  = "replication"
	keyOrder        = "orderpreservation"
	keyFusion       = "stagefusion"
	keySequential   = "sequentialexecution"
	keyBuffer       = "buffersize"
	keyMinParallel  = "minparallellen"
	defaultBufCap   = 8
	defaultMinParLn = 4
)

// NewPipeline constructs a pipeline named name from stages, registering
// its tuning parameters in ps (which may be nil for an untuned
// pipeline). Parameter keys follow the scheme
//
//	pipeline.<name>.stage.<i>.<param>   per-stage parameters
//	pipeline.<name>.fuse.<i>            fuse stages i and i+1
//	pipeline.<name>.<param>             global parameters
//
// matching the tuning configuration file of paper Fig. 3c. The fault
// policy (see FaultPolicy) is read from the same registry under
// pipeline.<name>.faultpolicy and friends.
func NewPipeline[T any](name string, ps *Params, stages ...Stage[T]) *Pipeline[T] {
	if len(stages) == 0 {
		panic("parrt: NewPipeline requires at least one stage")
	}
	p := &Pipeline[T]{
		name:     name,
		stages:   stages,
		params:   ps,
		counters: make([]stageCounters, len(stages)),
		m:        obs.Pattern{Stages: make([]obs.Stage, len(stages))},
	}
	prefix := "pipeline." + name
	for i, s := range stages {
		maxRepl := s.MaxReplication
		if maxRepl <= 0 {
			maxRepl = runtime.NumCPU()
		}
		if !s.Replicable {
			maxRepl = 1
		}
		p.repl = append(p.repl, ps.Register(Param{
			Key:  fmt.Sprintf("%s.stage.%d.%s", prefix, i, keyReplication),
			Kind: IntParam, Min: 1, Max: maxRepl, Value: 1,
		}))
		p.order = append(p.order, ps.Register(Param{
			Key:  fmt.Sprintf("%s.stage.%d.%s", prefix, i, keyOrder),
			Kind: BoolParam, Min: 0, Max: 1, Value: 1,
		}))
	}
	for i := 0; i < len(stages)-1; i++ {
		p.fuse = append(p.fuse, ps.Register(Param{
			Key:  fmt.Sprintf("%s.fuse.%d", prefix, i),
			Kind: BoolParam, Min: 0, Max: 1, Value: 0,
		}))
	}
	p.seq = ps.Register(Param{
		Key:  prefix + "." + keySequential,
		Kind: BoolParam, Min: 0, Max: 1, Value: 0,
	})
	p.buf = ps.Register(Param{
		Key:  prefix + "." + keyBuffer,
		Kind: IntParam, Min: 1, Max: 1024, Step: 64, Value: defaultBufCap,
	})
	p.minPl = ps.Register(Param{
		Key:  prefix + "." + keyMinParallel,
		Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: defaultMinParLn,
	})
	return p
}

// Instrument registers the pipeline with a metrics collector as one
// obs.Pattern of kind pipeline under its name, and returns the
// pipeline. Per stage it records the service-time histogram,
// downstream back-pressure, input-queue occupancy (sampled at each
// dequeue), the replica gauge and the stage name, plus wall time,
// queue capacity, reorder-buffer pressure and the fault-layer
// counters. A nil collector leaves the pipeline uninstrumented. Call
// before Process/Run; instrumenting a running pipeline races with its
// workers.
func (p *Pipeline[T]) Instrument(c *obs.Collector) *Pipeline[T] {
	if c == nil {
		return p
	}
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name
	}
	p.m = c.Pattern(obs.KindPipeline, p.name, names, 0)
	return p
}

// Name returns the pipeline's name.
func (p *Pipeline[T]) Name() string { return p.name }

// NumStages returns the number of (pre-fusion) stages.
func (p *Pipeline[T]) NumStages() int { return len(p.stages) }

// Stats returns a snapshot of per-stage counters.
func (p *Pipeline[T]) Stats() []StageStats {
	out := make([]StageStats, len(p.stages))
	for i := range p.stages {
		out[i] = StageStats{
			Name:  p.stages[i].Name,
			Items: p.counters[i].items.Load(),
			Busy:  time.Duration(p.counters[i].busyNanos.Load()),
		}
	}
	return out
}

// ResetStats zeroes the per-stage counters.
func (p *Pipeline[T]) ResetStats() {
	for i := range p.counters {
		p.counters[i].items.Store(0)
		p.counters[i].busyNanos.Store(0)
	}
}

// Process runs the pipeline over items and returns the processed
// elements. If SequentialExecution is set, or the stream is shorter
// than the MinParallelLen threshold, the stages run inline in order —
// the paper's guarantee that pipeline execution never leads to a
// slowdown versus the former sequential version. Otherwise elements
// flow through the parallel stage graph; the result order matches the
// input order whenever every replicated stage preserves order
// (the default), and is arrival order otherwise.
//
// Process preserves its historical crash contract: under the default
// fail-fast policy a panicking stage aborts the run and the captured
// *ItemError is re-panicked on the caller's goroutine (catchable,
// unlike the pre-fault-layer worker crash). Use ProcessCtx for
// cancellation and error reporting, or a SkipItem/RetryItem policy to
// degrade gracefully.
func (p *Pipeline[T]) Process(items []*T) []*T {
	res, _, err := p.ProcessCtx(context.Background(), items)
	if err != nil {
		panic(err)
	}
	return res
}

// ProcessCtx runs the pipeline over items under ctx and the pattern's
// fault policy. It returns the successfully processed elements (all of
// them when nothing failed), one *ItemError per faulted element, and
// the abort cause — nil when the stream drained completely, the first
// *ItemError under fail-fast, ctx's cancel cause on external
// cancellation, or a *StallError when the stall watchdog fired.
//
// Whatever the outcome, every pipeline goroutine has exited and every
// channel is closed by the time ProcessCtx returns, provided stage
// functions return; a permanently blocked stage function is abandoned
// (its goroutine leaks until the function returns) and reported via
// the watchdog.
func (p *Pipeline[T]) ProcessCtx(ctx context.Context, items []*T) ([]*T, []*ItemError, error) {
	pol := policyFromParams(p.params, "pipeline."+p.name)
	fr, finish := newFaultRun(ctx, p.name, pol, p.m.Faults)
	defer finish()
	if p.seq.Bool() || len(items) < p.minPl.Value {
		res := p.processSequentialCtx(fr, items)
		fr.finalizeCause()
		return res, fr.report.Errors(), fr.report.Err()
	}
	in := make(chan *T, len(items))
	for _, it := range items {
		in <- it
	}
	close(in)
	out := p.runCtx(fr, in)
	res := make([]*T, 0, len(items))
collect:
	for {
		select {
		case v, ok := <-out:
			if !ok {
				break collect
			}
			res = append(res, v)
		case <-fr.ctx.Done():
			if _, stalled := context.Cause(fr.ctx).(*StallError); stalled {
				// The stalled stage may never return; abandon the
				// drain instead of hanging with it.
				return res, fr.report.Errors(), fr.report.Err()
			}
			// Cooperative drain: the workers observe the cancel and
			// the output closes once in-flight elements settle.
			for v := range out {
				res = append(res, v)
			}
			break collect
		}
	}
	fr.finalizeCause()
	return res, fr.report.Errors(), fr.report.Err()
}

// processSequentialCtx is the inline fallback under the fault layer:
// stages run in order on the caller's goroutine, honoring the policy
// per element and stopping on cancellation or fail-fast abort.
func (p *Pipeline[T]) processSequentialCtx(fr *faultRun, items []*T) []*T {
	var wallStart time.Time
	if p.m.Enabled() {
		wallStart = time.Now()
		for i := range p.stages {
			p.m.Stages[i].Replicas.Set(1)
		}
	}
	res := make([]*T, 0, len(items))
	for idx, it := range items {
		if fr.canceled() {
			fr.fc.Drained.Add(int64(len(items) - idx))
			break
		}
		ok := true
		for i := range p.stages {
			start := time.Now()
			ok = fr.item(p.stages[i].Name, idx, func() { p.stages[i].Fn(it) })
			d := time.Since(start)
			p.counters[i].busyNanos.Add(int64(d))
			p.m.Stages[i].Service.Record(int64(d))
			if !ok {
				break
			}
			p.counters[i].items.Add(1)
		}
		if ok {
			res = append(res, it)
		}
	}
	if p.m.Enabled() {
		p.m.Wall.Add(int64(time.Since(wallStart)))
	}
	return res
}

// Run starts the parallel stage graph reading from in and returns the
// output channel. The channel is closed after the last element has
// left the final stage. Run always executes in parallel regardless of
// the SequentialExecution parameter; use Process for the tunable entry
// point and RunCtx for cancellation and fault reporting.
//
// Run preserves its historical crash contract: a fail-fast abort
// (stage panic under the default policy) is re-panicked on the
// forwarding goroutine once the stream has drained.
func (p *Pipeline[T]) Run(in <-chan *T) <-chan *T {
	out, rep := p.RunCtx(context.Background(), in)
	proxy := make(chan *T, p.buf.Value)
	go func() {
		for v := range out {
			proxy <- v
		}
		if err := rep.Err(); err != nil {
			panic(err)
		}
		close(proxy)
	}()
	return proxy
}

// RunCtx starts the parallel stage graph under ctx and the pattern's
// fault policy. It returns the output channel and the run's fault
// Report; the report is complete once the output channel closes. The
// caller must drain the output channel — on cancellation the runtime
// stops forwarding and the channel closes after the in-flight
// elements settle.
func (p *Pipeline[T]) RunCtx(ctx context.Context, in <-chan *T) (<-chan *T, *Report) {
	pol := policyFromParams(p.params, "pipeline."+p.name)
	fr, _ := newFaultRun(ctx, p.name, pol, p.m.Faults)
	return p.runCtx(fr, in), fr.report
}

// seqItem carries a stream element with its generation sequence
// number; failed marks an element whose stage faulted — it keeps
// flowing (so the reorder buffer sees a gapless sequence) but no
// further stage executes on it and it is filtered before the output.
type seqItem[T any] struct {
	seq    uint64
	v      *T
	failed bool
}

// segment is a fused run of stages executed by a common worker set.
type segment struct {
	lo, hi      int // stage index range [lo, hi]
	replication int
	preserve    bool
}

// plan folds the fusion, replication and order parameters into the
// executable segment list. A fused segment replicates only when every
// member stage is replicable (otherwise fusing would silently license
// parallel execution of a stage the detector deemed unsafe); its degree
// is the maximum member degree, and it preserves order when any member
// requests preservation.
func (p *Pipeline[T]) plan() []segment {
	var segs []segment
	for i := 0; i < len(p.stages); {
		j := i
		for j < len(p.stages)-1 && p.fuse[j].Bool() {
			j++
		}
		sg := segment{lo: i, hi: j, replication: 1}
		allRepl := true
		for k := i; k <= j; k++ {
			if !p.stages[k].Replicable {
				allRepl = false
			}
		}
		if allRepl {
			for k := i; k <= j; k++ {
				if r := p.repl[k].Value; r > sg.replication {
					sg.replication = r
				}
			}
		}
		if sg.replication > 1 {
			for k := i; k <= j; k++ {
				if p.order[k].Bool() {
					sg.preserve = true
				}
			}
		}
		segs = append(segs, sg)
		i = j + 1
	}
	return segs
}

// segLabel names a segment for diagnostics: the member stage names
// joined with '+'.
func (p *Pipeline[T]) segLabel(sg segment) string {
	if sg.lo == sg.hi {
		return p.stages[sg.lo].Name
	}
	names := make([]string, 0, sg.hi-sg.lo+1)
	for k := sg.lo; k <= sg.hi; k++ {
		names = append(names, p.stages[k].Name)
	}
	return strings.Join(names, "+")
}

// runCtx spins up the stage graph for one run. The returned channel
// closes after every worker exited and the wall clock stopped; the
// faultRun's context is released at that point.
func (p *Pipeline[T]) runCtx(fr *faultRun, in <-chan *T) <-chan *T {
	segs := p.plan()
	bufCap := p.buf.Value
	if bufCap < 1 {
		bufCap = 1
	}
	var wallStart time.Time
	if p.m.Enabled() {
		wallStart = time.Now()
		p.m.QueueCap.Set(int64(bufCap))
		for _, sg := range segs {
			for k := sg.lo; k <= sg.hi; k++ {
				p.m.Stages[k].Replicas.Set(int64(sg.replication))
			}
		}
	}
	// StreamGenerator (PLPL): the implicit first stage numbering the
	// continuous stream so replicated stages can restore order.
	var generated atomic.Int64
	gen := make(chan seqItem[T], bufCap)
	go func() {
		defer close(gen)
		var seq uint64
		for v := range in {
			if fr.canceled() {
				// Keep draining so the producer never blocks, but
				// stop admitting new work.
				fr.fc.Drained.Inc()
				continue
			}
			select {
			case gen <- seqItem[T]{seq: seq, v: v}:
				seq++
				generated.Add(1)
			case <-fr.ctx.Done():
				fr.fc.Drained.Inc()
			}
		}
	}()
	cur := gen
	segIns := make([]chan seqItem[T], len(segs))
	for i, sg := range segs {
		segIns[i] = cur
		cur = p.runSegment(fr, sg, cur)
	}
	stopWatchdog := fr.startWatchdog(func() string {
		return p.stallDiag(segs, segIns, &generated)
	})
	out := make(chan *T, bufCap)
	go func() {
		for it := range cur {
			if it.failed {
				continue
			}
			if fr.canceled() {
				fr.fc.Drained.Inc()
				continue
			}
			select {
			case out <- it.v:
			case <-fr.ctx.Done():
				fr.fc.Drained.Inc()
			}
		}
		if p.m.Enabled() {
			p.m.Wall.Add(int64(time.Since(wallStart)))
		}
		stopWatchdog()
		fr.finalizeCause()
		fr.cancel(nil)
		close(out)
	}()
	return out
}

// stallDiag renders the watchdog's diagnostic dump: per segment the
// completed-item count against what entered it plus the queued
// backlog, and the first segment holding unfinished work is named as
// the blocked stage.
func (p *Pipeline[T]) stallDiag(segs []segment, segIns []chan seqItem[T], generated *atomic.Int64) string {
	var b strings.Builder
	suspect := ""
	prev := generated.Load()
	for i, sg := range segs {
		done := p.counters[sg.hi].items.Load()
		queued := len(segIns[i])
		if suspect == "" && done < prev {
			suspect = p.segLabel(sg)
		}
		fmt.Fprintf(&b, " %s=%d/%d(queued %d)", p.segLabel(sg), done, prev, queued)
		prev = done
	}
	head := "no stage holds unfinished work (upstream starved?);"
	if suspect != "" {
		head = fmt.Sprintf("stage %q blocked;", suspect)
	}
	return head + " progress: generated=" + fmt.Sprint(generated.Load()) + b.String()
}

func (p *Pipeline[T]) runSegment(fr *faultRun, sg segment, in chan seqItem[T]) chan seqItem[T] {
	bufCap := p.buf.Value
	if bufCap < 1 {
		bufCap = 1
	}
	out := make(chan seqItem[T], bufCap)
	var wg sync.WaitGroup
	wg.Add(sg.replication)
	queueSum := p.m.Stages[sg.lo].QueueSum
	blocked := p.m.Stages[sg.lo].Blocked
	// forward pushes downstream, accounting for back-pressure and
	// giving up (counting the element drained) when the run is
	// canceled while blocked.
	forward := func(it seqItem[T]) {
		select {
		case out <- it:
			return
		default:
		}
		if blocked == nil {
			select {
			case out <- it:
			case <-fr.ctx.Done():
				fr.fc.Drained.Inc()
			}
			return
		}
		start := time.Now()
		select {
		case out <- it:
			blocked.Add(int64(time.Since(start)))
		case <-fr.ctx.Done():
			fr.fc.Drained.Inc()
		}
	}
	for w := 0; w < sg.replication; w++ {
		go func() {
			defer wg.Done()
			for it := range in {
				if fr.canceled() {
					// Drain without processing so upstream closes
					// cascade; nothing is forwarded.
					fr.fc.Drained.Inc()
					continue
				}
				queueSum.Add(int64(len(in)))
				if !it.failed {
					for k := sg.lo; k <= sg.hi; k++ {
						start := time.Now()
						ok := fr.item(p.stages[k].Name, int(it.seq), func() { p.stages[k].Fn(it.v) })
						d := time.Since(start)
						p.counters[k].busyNanos.Add(int64(d))
						p.m.Stages[k].Service.Record(int64(d))
						if !ok {
							it.failed = true
							break
						}
						p.counters[k].items.Add(1)
					}
				}
				forward(it)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	if sg.preserve {
		return reorder(out, bufCap, p.m.ReorderPending, p.m.ReorderHeld)
	}
	return out
}
