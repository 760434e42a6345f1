package parrt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"patty/internal/obs"
)

// elem is the test stream element: a value transformed by stages that
// record their application order.
type elem struct {
	id    int
	value int
	trace []string
}

func mkStage(name string, f func(*elem)) Stage[elem] {
	return Stage[elem]{Name: name, Replicable: true, MaxReplication: 8, Fn: func(e *elem) {
		f(e)
		e.trace = append(e.trace, name)
	}}
}

func ints(n int) []*elem {
	items := make([]*elem, n)
	for i := range items {
		items[i] = &elem{id: i, value: i}
	}
	return items
}

// threeStage builds add-1, mul-2, add-3 so that stage order is
// observable in the result: ((v+1)*2)+3.
func threeStage(ps *Params, name string) *Pipeline[elem] {
	return NewPipeline(name, ps,
		mkStage("A", func(e *elem) { e.value++ }),
		mkStage("B", func(e *elem) { e.value *= 2 }),
		mkStage("C", func(e *elem) { e.value += 3 }),
	)
}

func wantVal(v int) int { return (v+1)*2 + 3 }

func checkResults(t *testing.T, items []*elem, n int, ordered bool) {
	t.Helper()
	if len(items) != n {
		t.Fatalf("got %d results, want %d", len(items), n)
	}
	seen := make(map[int]bool)
	for i, e := range items {
		if seen[e.id] {
			t.Fatalf("duplicate element id %d", e.id)
		}
		seen[e.id] = true
		if e.value != wantVal(e.id) {
			t.Errorf("element %d: value = %d, want %d", e.id, e.value, wantVal(e.id))
		}
		if len(e.trace) != 3 || e.trace[0] != "A" || e.trace[1] != "B" || e.trace[2] != "C" {
			t.Errorf("element %d: stage trace = %v, want [A B C]", e.id, e.trace)
		}
		if ordered && e.id != i {
			t.Errorf("position %d holds element %d, want input order preserved", i, e.id)
		}
	}
}

func TestPipelineSequentialFallbackShortStream(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	// Default MinParallelLen is 4; a 3-element stream runs inline.
	out := p.Process(ints(3))
	checkResults(t, out, 3, true)
}

func TestPipelineParallelBasic(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	out := p.Process(ints(100))
	checkResults(t, out, 100, true)
}

func TestPipelineForcedSequential(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	ps.Set("pipeline.t."+keySequential, 1)
	out := p.Process(ints(50))
	checkResults(t, out, 50, true)
}

func TestPipelineReplicationPreservesOrder(t *testing.T) {
	ps := NewParams()
	p := NewPipeline("t", ps,
		mkStage("A", func(e *elem) { e.value++ }),
		// Irregular stage cost provokes overtaking inside the
		// replicated stage; OrderPreservation must mask it.
		Stage[elem]{Name: "B", Replicable: true, MaxReplication: 8, Fn: func(e *elem) {
			if e.id%7 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			e.value *= 2
			e.trace = append(e.trace, "B")
		}},
		mkStage("C", func(e *elem) { e.value += 3 }),
	)
	ps.Set("pipeline.t.stage.1.replication", 4)
	ps.Set("pipeline.t.stage.1.orderpreservation", 1)
	out := p.Process(ints(200))
	checkResults(t, out, 200, true)
}

func TestPipelineReplicationWithoutOrderStillComplete(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	ps.Set("pipeline.t.stage.1.replication", 4)
	ps.Set("pipeline.t.stage.1.orderpreservation", 0)
	out := p.Process(ints(200))
	checkResults(t, out, 200, false)
}

func TestPipelineNonReplicableStageNeverReplicates(t *testing.T) {
	ps := NewParams()
	var inStage atomic.Int32
	var maxConc atomic.Int32
	p := NewPipeline("t", ps,
		mkStage("A", func(e *elem) { e.value++ }),
		Stage[elem]{Name: "B", Replicable: false, Fn: func(e *elem) {
			c := inStage.Add(1)
			for {
				m := maxConc.Load()
				if c <= m || maxConc.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(20 * time.Microsecond)
			inStage.Add(-1)
			e.value *= 2
			e.trace = append(e.trace, "B")
		}},
		mkStage("C", func(e *elem) { e.value += 3 }),
	)
	// Replication parameter for a non-replicable stage is clamped to 1.
	ps.Set("pipeline.t.stage.1.replication", 8)
	out := p.Process(ints(60))
	checkResults(t, out, 60, true)
	if maxConc.Load() != 1 {
		t.Fatalf("non-replicable stage observed concurrency %d, want 1", maxConc.Load())
	}
}

func TestPipelineStageFusion(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	ps.Set("pipeline.t.fuse.0", 1)
	ps.Set("pipeline.t.fuse.1", 1)
	segs := p.plan()
	if len(segs) != 1 || segs[0].lo != 0 || segs[0].hi != 2 {
		t.Fatalf("plan with full fusion = %+v, want single segment [0,2]", segs)
	}
	out := p.Process(ints(100))
	checkResults(t, out, 100, true)
}

func TestPipelinePartialFusionPlan(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	ps.Set("pipeline.t.fuse.1", 1) // fuse B and C only
	segs := p.plan()
	if len(segs) != 2 {
		t.Fatalf("plan = %+v, want 2 segments", segs)
	}
	if segs[0].lo != 0 || segs[0].hi != 0 || segs[1].lo != 1 || segs[1].hi != 2 {
		t.Fatalf("plan = %+v, want [0,0] and [1,2]", segs)
	}
	out := p.Process(ints(100))
	checkResults(t, out, 100, true)
}

func TestPipelineFusedSegmentReplicationRules(t *testing.T) {
	ps := NewParams()
	p := NewPipeline("t", ps,
		mkStage("A", func(e *elem) { e.value++ }),
		Stage[elem]{Name: "B", Replicable: false, Fn: func(e *elem) { e.value *= 2; e.trace = append(e.trace, "B") }},
	)
	ps.Set("pipeline.t.fuse.0", 1)
	ps.Set("pipeline.t.stage.0.replication", 4)
	segs := p.plan()
	if len(segs) != 1 {
		t.Fatalf("plan = %+v, want one fused segment", segs)
	}
	if segs[0].replication != 1 {
		t.Fatalf("fused segment containing non-replicable stage has replication %d, want 1", segs[0].replication)
	}
}

func TestPipelineFusedAllReplicableTakesMaxDegree(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	ps.Set("pipeline.t.fuse.0", 1)
	ps.Set("pipeline.t.stage.0.replication", 2)
	ps.Set("pipeline.t.stage.1.replication", 3)
	segs := p.plan()
	if len(segs) != 2 {
		t.Fatalf("plan = %+v, want 2 segments", segs)
	}
	if segs[0].replication != 3 {
		t.Fatalf("fused replicable segment degree = %d, want max(2,3)=3", segs[0].replication)
	}
	out := p.Process(ints(100))
	checkResults(t, out, 100, true)
}

// TestPipelineStats: the per-stage runtime distribution comes from the
// pipeline's obs.Pattern — one service-time sample per element and
// stage, zeroed by the collector's Reset.
func TestPipelineStats(t *testing.T) {
	ps := NewParams()
	c := obs.New()
	p := threeStage(ps, "t").Instrument(c)
	p.Process(ints(50))
	as := obs.Analyze(c.Snapshot())
	if len(as) != 1 || len(as[0].Stages) != 3 {
		t.Fatalf("analyses = %+v, want one pipeline with 3 stages", as)
	}
	for i, s := range as[0].Stages {
		if s.Service.Count != 50 || s.Service.Sum <= 0 {
			t.Errorf("stage %d: %d service samples summing to %d ns, want 50 and a positive sum", i, s.Service.Count, s.Service.Sum)
		}
	}
	c.Reset()
	for i, s := range obs.Analyze(c.Snapshot())[0].Stages {
		if s.Service.Count != 0 || s.Service.Sum != 0 {
			t.Errorf("stage %d not reset: %+v", i, s.Service)
		}
	}
}

func TestPipelineGroupStageRunsAllSubFunctions(t *testing.T) {
	type img struct{ crop, histo, oil, conv bool }
	ps := NewParams()
	p := NewPipeline("video", ps,
		Group("ABC", true,
			func(v *img) { v.crop = true },
			func(v *img) { v.histo = true },
			func(v *img) { v.oil = true },
		),
		Stage[img]{Name: "D", Replicable: false, Fn: func(v *img) {
			if !v.crop || !v.histo || !v.oil {
				t.Error("stage D ran before all group members finished")
			}
			v.conv = true
		}},
	)
	items := make([]*img, 20)
	for i := range items {
		items[i] = &img{}
	}
	out := p.Process(items)
	for i, v := range out {
		if !v.conv {
			t.Errorf("item %d: conv stage missing", i)
		}
	}
}

func TestPipelineSingleStage(t *testing.T) {
	ps := NewParams()
	p := NewPipeline("one", ps, mkStage("A", func(e *elem) { e.value++ }))
	out := p.Process(ints(10))
	if len(out) != 10 {
		t.Fatalf("got %d results", len(out))
	}
	for _, e := range out {
		if e.value != e.id+1 {
			t.Errorf("element %d: value = %d, want %d", e.id, e.value, e.id+1)
		}
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	if out := p.Process(nil); len(out) != 0 {
		t.Fatalf("Process(nil) returned %d items", len(out))
	}
	ps.Set("pipeline.t."+keyMinParallel, 0)
	if out := p.Process([]*elem{}); len(out) != 0 {
		t.Fatalf("parallel Process(empty) returned %d items", len(out))
	}
}

func TestNewPipelinePanicsWithoutStages(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipeline with no stages did not panic")
		}
	}()
	NewPipeline[elem]("bad", NewParams())
}

func TestPipelineRunStreaming(t *testing.T) {
	ps := NewParams()
	p := threeStage(ps, "t")
	in := make(chan *elem)
	go func() {
		for i := 0; i < 30; i++ {
			in <- &elem{id: i, value: i}
		}
		close(in)
	}()
	out, rep := p.RunCtx(context.Background(), in)
	var got []*elem
	for e := range out {
		got = append(got, e)
	}
	checkResults(t, got, 30, true)
	if err := rep.Err(); err != nil || len(rep.Errors()) != 0 {
		t.Fatalf("report: err %v, item errors %v", err, rep.Errors())
	}
}

// TestPipelineRandomTuningProperty: for any assignment of the tuning
// parameters, the pipeline produces exactly the sequential results —
// tuning parameters change runtime behaviour, never semantics
// (paper §2.1).
func TestPipelineRandomTuningProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := NewParams()
		p := threeStage(ps, "t")
		ps.Set("pipeline.t.stage.0.replication", 1+rng.Intn(4))
		ps.Set("pipeline.t.stage.1.replication", 1+rng.Intn(4))
		ps.Set("pipeline.t.stage.2.replication", 1+rng.Intn(4))
		ps.Set("pipeline.t.stage.0.orderpreservation", rng.Intn(2))
		ps.Set("pipeline.t.stage.1.orderpreservation", rng.Intn(2))
		ps.Set("pipeline.t.stage.2.orderpreservation", rng.Intn(2))
		ps.Set("pipeline.t.fuse.0", rng.Intn(2))
		ps.Set("pipeline.t.fuse.1", rng.Intn(2))
		ps.Set("pipeline.t."+keySequential, rng.Intn(2))
		ps.Set("pipeline.t."+keyBuffer, 1+rng.Intn(16))
		n := rng.Intn(80)
		out := p.Process(ints(n))
		if len(out) != n {
			return false
		}
		seen := make(map[int]bool)
		for _, e := range out {
			if seen[e.id] || e.value != wantVal(e.id) {
				return false
			}
			seen[e.id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineParamKeysRegistered pins what every pattern registers —
// key, kind, bounds, step, choices and default — since tuning files and
// the auto-tuner's dimension list are built from exactly these.
func TestPipelineParamKeysRegistered(t *testing.T) {
	ps := NewParams()
	threeStage(ps, "vid")
	NewParallelFor("loop", ps, 4)
	NewMasterWorker("pool", ps, 3, func(x int) int { return x })
	want := []Param{
		{Key: "masterworker.pool.minparallellen", Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: 2},
		{Key: "masterworker.pool.orderpreservation", Kind: BoolParam, Min: 0, Max: 1, Value: 1},
		{Key: "masterworker.pool.sequentialexecution", Kind: BoolParam, Min: 0, Max: 1, Value: 0},
		{Key: "masterworker.pool.workers", Kind: IntParam, Min: 1, Max: 3, Value: 3},
		{Key: "parallelfor.loop.chunksize", Kind: IntParam, Min: 1, Max: 1 << 16, Step: 512, Value: 64},
		{Key: "parallelfor.loop.minparallellen", Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: 2},
		{Key: "parallelfor.loop.schedule", Kind: EnumParam, Min: 0, Max: 2, Choices: ScheduleNames, Value: 0},
		{Key: "parallelfor.loop.sequentialexecution", Kind: BoolParam, Min: 0, Max: 1, Value: 0},
		{Key: "parallelfor.loop.workers", Kind: IntParam, Min: 1, Max: 4, Value: 4},
		{Key: "pipeline.vid.buffersize", Kind: IntParam, Min: 1, Max: 1024, Step: 64, Value: 8},
		{Key: "pipeline.vid.fuse.0", Kind: BoolParam, Min: 0, Max: 1, Value: 0},
		{Key: "pipeline.vid.fuse.1", Kind: BoolParam, Min: 0, Max: 1, Value: 0},
		{Key: "pipeline.vid.minparallellen", Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: 4},
		{Key: "pipeline.vid.sequentialexecution", Kind: BoolParam, Min: 0, Max: 1, Value: 0},
		{Key: "pipeline.vid.stage.0.orderpreservation", Kind: BoolParam, Min: 0, Max: 1, Value: 1},
		{Key: "pipeline.vid.stage.0.replication", Kind: IntParam, Min: 1, Max: 8, Value: 1},
		{Key: "pipeline.vid.stage.1.orderpreservation", Kind: BoolParam, Min: 0, Max: 1, Value: 1},
		{Key: "pipeline.vid.stage.1.replication", Kind: IntParam, Min: 1, Max: 8, Value: 1},
		{Key: "pipeline.vid.stage.2.orderpreservation", Kind: BoolParam, Min: 0, Max: 1, Value: 1},
		{Key: "pipeline.vid.stage.2.replication", Kind: IntParam, Min: 1, Max: 8, Value: 1},
	}
	all := ps.All()
	if len(all) != len(want) {
		t.Fatalf("registered %d params, want %d: %v", len(all), len(want), all)
	}
	for i, p := range all {
		if !reflect.DeepEqual(*p, want[i]) {
			t.Errorf("param %d = %+v, want %+v", i, *p, want[i])
		}
	}
}

func TestReorderRestoresArbitraryPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		perm := rng.Perm(n)
		in := make(chan seqItem[elem], n)
		for _, i := range perm {
			in <- seqItem[elem]{seq: uint64(i), v: &elem{id: i}}
		}
		close(in)
		out := reorder(in, 4, nil, nil)
		next := 0
		for it := range out {
			if int(it.seq) != next {
				return false
			}
			next++
		}
		return next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineNameAndNumStages(t *testing.T) {
	p := threeStage(NewParams(), "named")
	if p.Name() != "named" {
		t.Fatalf("Name = %q", p.Name())
	}
	if p.NumStages() != 3 {
		t.Fatalf("NumStages = %d", p.NumStages())
	}
}

func ExampleNewPipeline() {
	type item struct{ v int }
	ps := NewParams()
	p := NewPipeline("example", ps,
		Stage[item]{Name: "double", Replicable: true, Fn: func(it *item) { it.v *= 2 }},
		Stage[item]{Name: "inc", Replicable: true, Fn: func(it *item) { it.v++ }},
	)
	items := []*item{{1}, {2}, {3}, {4}, {5}}
	for _, it := range p.Process(items) {
		fmt.Print(it.v, " ")
	}
	// Output: 3 5 7 9 11
}
