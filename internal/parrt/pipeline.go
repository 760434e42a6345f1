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

// Pipeline is the tunable software-pipeline pattern. Stages are bound
// to goroutines ("stage binding", paper §2.2) and connected by bounded
// buffers. The zero value is not usable; construct with NewPipeline.
//
// The global parameters sequentialexecution and minparallellen (the
// stream-length threshold below which Process runs sequentially) live
// in the embedded core, like those of every other pattern.
type Pipeline[T any] struct {
	core
	stages []Stage[T]

	repl  []*Param // per stage: replication degree
	order []*Param // per stage: order preservation after replication
	fuse  []*Param // per adjacent pair (i, i+1): execute in one goroutine
	buf   *Param   // global: inter-stage buffer capacity
}

// Pipeline tuning-parameter key suffixes.
const (
	keyReplication  = "replication"
	keyOrder        = "orderpreservation"
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
	p := &Pipeline[T]{core: newCore(obs.KindPipeline, name, ps, defaultMinParLn), stages: stages}
	// Uninstrumented, every stage instrument is nil and each record a
	// one-branch no-op.
	p.m.Stages = make([]obs.Stage, len(stages))
	prefix := p.prefix
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
	p.buf = ps.Register(Param{
		Key:  prefix + "." + keyBuffer,
		Kind: IntParam, Min: 1, Max: 1024, Step: 64, Value: defaultBufCap,
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
// before Process/RunCtx; instrumenting a running pipeline races with its
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

// NumStages returns the number of (pre-fusion) stages.
func (p *Pipeline[T]) NumStages() int { return len(p.stages) }

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
// the watchdog, with no results.
func (p *Pipeline[T]) ProcessCtx(ctx context.Context, items []*T) ([]*T, []*ItemError, error) {
	var res []*T
	errs, err, joined := p.run(ctx, len(items), func(fr *faultRun) {
		res = p.processSequentialCtx(fr, items)
	}, func(fr *faultRun) (func(), func() string) {
		in := make(chan *T, len(items))
		for _, it := range items {
			in <- it
		}
		close(in)
		out, diag := p.graph(fr, in)
		return func() {
			res = make([]*T, 0, len(items))
			for it := range out {
				if !it.failed {
					res = append(res, it.v)
				}
			}
		}, diag
	})
	if !joined {
		return nil, errs, err
	}
	return res, errs, err
}

// processSequentialCtx is the inline fallback under the fault layer:
// stages run in order on the caller's goroutine, honoring the policy
// per element and stopping on cancellation or fail-fast abort.
func (p *Pipeline[T]) processSequentialCtx(fr *faultRun, items []*T) []*T {
	if p.m.Enabled() {
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
		if p.runStages(fr, 0, len(p.stages)-1, idx, it) {
			res = append(res, it)
		}
	}
	return res
}

// runStages runs stages lo..hi on element v (stream index idx) under
// the fault policy, recording each stage's service time. It reports
// false at the first faulted stage.
func (p *Pipeline[T]) runStages(fr *faultRun, lo, hi, idx int, v *T) bool {
	for k := lo; k <= hi; k++ {
		var start time.Time
		if p.m.Enabled() {
			start = time.Now()
		}
		ok := fr.item(p.stages[k].Name, idx, func() { p.stages[k].Fn(v) })
		if p.m.Enabled() {
			p.m.Stages[k].Service.Record(int64(time.Since(start)))
		}
		if !ok {
			return false
		}
	}
	return true
}

// RunCtx starts the parallel stage graph under ctx and the pattern's
// fault policy; it always runs in parallel, whatever the
// SequentialExecution parameter says. It returns the output channel
// and the run's fault Report; the report is complete once the output
// channel closes. The caller must drain the output channel — on
// cancellation the runtime stops forwarding and the channel closes
// after the in-flight elements settle.
func (p *Pipeline[T]) RunCtx(ctx context.Context, in <-chan *T) (<-chan *T, *Report) {
	fr, finish := newFaultRun(ctx, p.name, policyFromParams(p.params, p.prefix), p.m.Faults)
	start := time.Now()
	cur, diag := p.graph(fr, in)
	stopWatchdog := fr.startWatchdog(diag)
	out := make(chan *T, p.bufCap())
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
			p.m.Wall.Add(int64(time.Since(start)))
		}
		stopWatchdog()
		fr.finalizeCause()
		finish()
		close(out)
	}()
	return out, fr.report
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

// bufCap is the inter-stage buffer capacity, at least 1.
func (p *Pipeline[T]) bufCap() int { return max(1, p.buf.Value) }

// graph spins up the stage graph for one run over in. It returns the
// last segment's output, which closes once every stage worker has
// exited, and the stall diagnostic of the run.
func (p *Pipeline[T]) graph(fr *faultRun, in <-chan *T) (chan seqItem[T], func() string) {
	segs := p.plan()
	bufCap := p.bufCap()
	if p.m.Enabled() {
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
	done := make([]atomic.Int64, len(segs))
	for i, sg := range segs {
		segIns[i] = cur
		cur = p.runSegment(fr, sg, cur, &done[i])
	}
	return cur, func() string { return p.stallDiag(segs, segIns, done, &generated) }
}

// stallDiag renders the watchdog's diagnostic dump: per segment the
// completed-item count against what entered it plus the queued
// backlog, and the first segment holding unfinished work is named as
// the blocked stage.
func (p *Pipeline[T]) stallDiag(segs []segment, segIns []chan seqItem[T], done []atomic.Int64, generated *atomic.Int64) string {
	var b strings.Builder
	suspect := ""
	prev := generated.Load()
	for i, sg := range segs {
		done := done[i].Load()
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

// runSegment starts the workers of one segment reading in, and
// returns the segment's output; done counts the elements that passed
// every stage of the segment.
func (p *Pipeline[T]) runSegment(fr *faultRun, sg segment, in chan seqItem[T], done *atomic.Int64) chan seqItem[T] {
	bufCap := p.bufCap()
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
					if p.runStages(fr, sg.lo, sg.hi, int(it.seq), it.v) {
						done.Add(1)
					} else {
						it.failed = true
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
