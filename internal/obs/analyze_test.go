package obs

import (
	"math"
	"testing"
)

// syntheticPipeline builds a snapshot for a 3-stage pipeline where
// stage 1 ("oil") is the saturated bottleneck: wall 1s, oil busy
// 2.85s over 3 replicas (0.95 util), neighbours far below.
func syntheticPipeline() Snapshot {
	c := New()
	wall := int64(1_000_000_000)
	stages := []struct {
		name     string
		busy     int64
		items    int64
		replicas int64
		queueSum int64
		blocked  int64
	}{
		{"crop", 200_000_000, 100, 1, 100, 0},       // util 0.20, fill ~0.125
		{"oil", 2_850_000_000, 100, 3, 800, 0},      // util 0.95, fill 1.0
		{"add", 100_000_000, 100, 1, 0, 50_000_000}, // util 0.10
	}
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.name
	}
	p := c.Pattern(KindPipeline, "video", names, 0)
	p.Wall.Add(wall)
	p.QueueCap.Set(8)
	for i, st := range stages {
		in := p.Stages[i]
		per := st.busy / st.items
		for j := int64(0); j < st.items; j++ {
			in.Service.Record(per)
		}
		in.Replicas.Set(st.replicas)
		in.QueueSum.Add(st.queueSum)
		in.Blocked.Add(st.blocked)
	}
	p.ReorderPending.Set(2)
	p.ReorderHeld.Add(17)
	return c.Snapshot()
}

func TestAnalyzePipeline(t *testing.T) {
	as := Analyze(syntheticPipeline())
	if len(as) != 1 {
		t.Fatalf("analyses = %d, want 1", len(as))
	}
	a := as[0]
	if a.Kind != KindPipeline || a.Name != "video" {
		t.Fatalf("identity = %s/%s", a.Kind, a.Name)
	}
	if len(a.Stages) != 3 {
		t.Fatalf("stages = %d", len(a.Stages))
	}
	if a.BottleneckStage != 1 || a.Bottleneck() != "oil" {
		t.Fatalf("bottleneck = stage %d (%q)", a.BottleneckStage, a.Bottleneck())
	}
	if math.Abs(a.BottleneckUtil-0.95) > 0.01 {
		t.Fatalf("bottleneck util = %f, want ~0.95", a.BottleneckUtil)
	}
	if !a.Saturated() {
		t.Fatal("oil at 0.95 must count as saturated")
	}
	if math.Abs(a.QueuePressure-1.0) > 0.01 {
		t.Fatalf("queue pressure = %f, want ~1.0", a.QueuePressure)
	}
	if a.Imbalance <= 1.0 {
		t.Fatalf("imbalance = %f, want > 1 (oil dominates)", a.Imbalance)
	}
	if a.ReorderPending != 2 || a.ReorderHeld != 17 {
		t.Fatalf("reorder = %d pending / %d held", a.ReorderPending, a.ReorderHeld)
	}
	if a.Items != 100 {
		t.Fatalf("items = %d", a.Items)
	}
	if a.Stages[0].Name != "crop" || a.Stages[2].Name != "add" {
		t.Fatalf("stage labels = %+v", a.Stages)
	}
	if a.Stages[2].BlockedNs != 50_000_000 {
		t.Fatalf("blocked = %d", a.Stages[2].BlockedNs)
	}
}

func TestAnalyzeWorkers(t *testing.T) {
	c := New()
	busies := []int64{900_000, 300_000, 300_000}
	pool := c.Pattern(KindMasterWorker, "pool", nil, len(busies))
	pool.Wall.Add(1_000_000)
	pool.Items.Add(30)
	for w, b := range busies {
		pool.Workers[w].Busy.Add(b)
		pool.Workers[w].Items.Add(10)
	}
	loop := c.Pattern(KindParallelFor, "loop", nil, 0)
	loop.Wall.Add(500)
	loop.Chunk.Record(100)

	as := Analyze(c.Snapshot())
	if len(as) != 2 {
		t.Fatalf("analyses = %d, want 2 (sorted: masterworker, parallelfor)", len(as))
	}
	mw := as[0]
	if mw.Kind != KindMasterWorker || len(mw.Workers) != 3 {
		t.Fatalf("mw = %+v", mw)
	}
	// max 900k, mean 500k -> imbalance 1.8
	if math.Abs(mw.Imbalance-1.8) > 0.01 {
		t.Fatalf("imbalance = %f, want 1.8", mw.Imbalance)
	}
	if mw.Bottleneck() != "worker 0" {
		t.Fatalf("bottleneck = %q", mw.Bottleneck())
	}
	if math.Abs(mw.BottleneckUtil-0.9) > 0.01 {
		t.Fatalf("util = %f, want 0.9", mw.BottleneckUtil)
	}
	if mw.Items != 30 {
		t.Fatalf("items = %d", mw.Items)
	}
	pf := as[1]
	if pf.Kind != KindParallelFor || pf.ChunkNs.Count != 1 || pf.Items != 1 {
		t.Fatalf("pf = %+v", pf)
	}
}

// TestAnalyzeFaultCounters: the fault-layer counters every runtime
// records in its pattern instance must land in the analysis, and any
// activity there must flip Faulted().
func TestAnalyzeFaultCounters(t *testing.T) {
	c := New()
	loop := c.Pattern(KindParallelFor, "loop", nil, 0)
	loop.Wall.Add(1_000)
	loop.Faults.Errors.Add(3)
	loop.Faults.Retries.Add(7)
	loop.Faults.Timeouts.Add(1)
	loop.Faults.Drained.Add(12)
	c.Pattern(KindMasterWorker, "pool", nil, 0).Wall.Add(1_000)

	as := Analyze(c.Snapshot())
	if len(as) != 2 {
		t.Fatalf("analyses = %d, want 2", len(as))
	}
	mw, pf := as[0], as[1]
	if mw.Faulted() {
		t.Fatalf("clean pattern reports Faulted: %+v", mw)
	}
	if pf.FaultErrors != 3 || pf.FaultRetries != 7 || pf.FaultTimeouts != 1 || pf.FaultDrained != 12 {
		t.Fatalf("fault counters = %d/%d/%d/%d, want 3/7/1/12",
			pf.FaultErrors, pf.FaultRetries, pf.FaultTimeouts, pf.FaultDrained)
	}
	if !pf.Faulted() {
		t.Fatal("pattern with fault activity must report Faulted")
	}
}

// TestAnalyzeIgnoresForeignKeys: plain instruments, even ones named
// like a pattern, are not pattern instances.
func TestAnalyzeIgnoresForeignKeys(t *testing.T) {
	c := New()
	c.Counter("http.requests").Add(3)
	c.Counter("pipeline.x.stage.0.service_ns").Add(1)
	c.Pattern(KindPipeline, "x", nil, 0)
	if as := Analyze(c.Snapshot()); len(as) != 1 || len(as[0].Stages) != 0 {
		t.Fatalf("analyses = %+v", as)
	}
}

func TestAnalyzeEmptySnapshot(t *testing.T) {
	if as := Analyze(Snapshot{}); len(as) != 0 {
		t.Fatalf("analyses = %+v", as)
	}
}
