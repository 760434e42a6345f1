package obs

import (
	"encoding/json"
	"expvar"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := New()
	ct := c.Counter("a.b.items")
	ct.Add(3)
	ct.Inc()
	if got := ct.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c.Counter("a.b.items") != ct {
		t.Fatal("same key must return the same counter")
	}
	g := c.Gauge("a.b.depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v    int64
		want int64 // expected bucket lower bound
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8},
		{1023, 512}, {1024, 1024}, {1 << 40, 1 << 40}, {-5, 0},
	}
	for _, tc := range cases {
		var h Histogram
		h.Record(tc.v)
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("Record(%d): %d buckets, want 1", tc.v, len(s.Buckets))
		}
		if s.Buckets[0].Low != tc.want {
			t.Errorf("Record(%d): bucket low %d, want %d", tc.v, s.Buckets[0].Low, tc.want)
		}
	}
}

func TestBucketLowRoundTrip(t *testing.T) {
	for i := 0; i < histBuckets; i++ {
		lo := BucketLow(i)
		if got := bucketOf(lo); got != i {
			t.Errorf("bucketOf(BucketLow(%d)=%d) = %d", i, lo, got)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{100, 200, 300, 400, -50} {
		h.Record(v)
	}
	s := h.snapshot()
	if s.Count != 5 || s.Sum != 1000 || s.Min != 0 || s.Max != 400 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got := s.Mean(); got != 200 {
		t.Fatalf("mean = %f", got)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("q0 = %f", q)
	}
	if q := s.Quantile(1); q != 400 {
		t.Errorf("q1 = %f, want 400", q)
	}
	if q := s.Quantile(0.5); q < 64 || q > 400 {
		t.Errorf("median = %f out of plausible bucket range", q)
	}
	var empty HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.9) != 0 {
		t.Error("empty snapshot stats must be zero")
	}
}

func TestNilInstrumentsAreNoops(t *testing.T) {
	var c *Collector
	ct := c.Counter("x")
	g := c.Gauge("x")
	h := c.Histogram("x")
	if ct != nil || g != nil || h != nil {
		t.Fatal("nil collector must hand out nil instruments")
	}
	if c.CounterOf("x", "a") != nil || c.GaugeOf("x", "a") != nil || c.HistogramOf("x", "a") != nil {
		t.Fatal("nil collector must hand out nil family instruments")
	}
	c.CounterOf("x", "a").Inc() // must not panic
	c.GaugeOf("x", "a").Set(1)
	c.HistogramOf("x", "a").Record(1)
	ct.Add(1) // must not panic
	ct.Inc()
	g.Set(3)
	g.Add(1)
	h.Record(42)
	if ct.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if p := c.Pattern(KindPipeline, "x", []string{"s"}, 2); p.Enabled() || p.Stages != nil || p.Workers != nil {
		t.Fatalf("nil collector must hand out the zero pattern: %+v", p)
	}
	c.Reset()
	c.PublishExpvar("obs-test-nil")
	if s := c.Snapshot(); s.Counters != nil || s.CounterFamilies != nil {
		t.Fatalf("nil collector snapshot = %+v", s)
	}
}

// TestSnapshotConsistencyUnderConcurrentWriters hammers one histogram
// and one counter from many goroutines while snapshotting
// concurrently. Mid-flight snapshots must be monotonically plausible
// (never exceed the final totals, bucket sums never exceed a count
// observed later); the final snapshot must be exact.
func TestSnapshotConsistencyUnderConcurrentWriters(t *testing.T) {
	const writers = 8
	const perWriter = 5000
	c := New()
	st := c.Pattern(KindPipeline, "x", []string{"s"}, 0).Stages[0]
	h, ct := st.Service, st.Blocked

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				h.Record(int64(i % 1000))
				ct.Add(1)
			}
		}(w)
	}
	stop := make(chan struct{})
	snapErr := make(chan string, 1)
	go func() {
		defer close(snapErr)
		var lastCount int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			hs := c.Snapshot().Patterns[0].Stages[0].Service
			if hs.Count > writers*perWriter {
				snapErr <- "count exceeded total writes"
				return
			}
			if hs.Count < lastCount {
				snapErr <- "count went backwards"
				return
			}
			lastCount = hs.Count
			if hs.Count > 0 && (hs.Max > 999 || hs.Min < 0) {
				snapErr <- "min/max out of recorded range"
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	if msg, ok := <-snapErr; ok && msg != "" {
		t.Fatal(msg)
	}

	ss := c.Snapshot().Patterns[0].Stages[0]
	hs := ss.Service
	total := int64(writers * perWriter)
	if hs.Count != total {
		t.Fatalf("final count = %d, want %d", hs.Count, total)
	}
	var bucketSum int64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	var wantSum int64
	for i := 0; i < perWriter; i++ {
		wantSum += int64(i % 1000)
	}
	if hs.Sum != writers*wantSum {
		t.Fatalf("sum = %d, want %d", hs.Sum, writers*wantSum)
	}
	if hs.Min != 0 || hs.Max != 999 {
		t.Fatalf("min/max = %d/%d, want 0/999", hs.Min, hs.Max)
	}
	if ss.BlockedNs != total {
		t.Fatal("counter total wrong")
	}
}

func TestResetAndKeys(t *testing.T) {
	c := New()
	c.Counter("b").Add(2)
	c.Gauge("a").Set(9)
	c.Histogram("c").Record(5)
	c.CounterOf("b", "t").Add(4)
	p := c.Pattern(KindMasterWorker, "Process.L1", nil, 1)
	p.Wall.Add(7)
	p.Workers[0].Busy.Add(3)
	c.Reset()
	s := c.Snapshot()
	if v, ok := s.CounterFamilies["b"]["t"]; !ok || v != 0 {
		t.Fatalf("reset must zero and keep family members: %+v", s.CounterFamilies)
	}
	if s.Counters["b"] != 0 || s.Gauges["a"] != 0 || s.Histograms["c"].Count != 0 {
		t.Fatalf("reset left values: %+v", s)
	}
	if len(s.Patterns) != 1 || s.Patterns[0].Name != "Process.L1" || len(s.Patterns[0].Workers) != 1 ||
		s.Patterns[0].WallNs != 0 || s.Patterns[0].Workers[0].BusyNs != 0 {
		t.Fatalf("reset must zero and keep pattern instances: %+v", s.Patterns)
	}
}

// TestPatternRegistrationGrows: registering an instance again hands
// out the same instruments, grown to the larger stage and worker
// counts, and keeps a dotted name whole.
func TestPatternRegistrationGrows(t *testing.T) {
	c := New()
	a := c.Pattern(KindPipeline, "Process.L1", []string{"crop"}, 1)
	b := c.Pattern(KindPipeline, "Process.L1", []string{"crop", "oil"}, 2)
	if a.Wall != b.Wall || a.Stages[0].Service != b.Stages[0].Service || a.Workers[0].Busy != b.Workers[0].Busy {
		t.Fatal("a second registration must share the first one's instruments")
	}
	if len(a.Stages) != 1 || len(b.Stages) != 2 || len(b.Workers) != 2 {
		t.Fatalf("stages %d/%d, workers %d: want 1/2 and 2", len(a.Stages), len(b.Stages), len(b.Workers))
	}
	a.Wall.Add(5)
	b.Stages[1].Service.Record(9)
	s := c.Snapshot()
	if len(s.Patterns) != 1 {
		t.Fatalf("patterns = %+v, want one instance", s.Patterns)
	}
	p := s.Patterns[0]
	if p.Kind != KindPipeline || p.Name != "Process.L1" || p.WallNs != 5 ||
		len(p.Stages) != 2 || p.Stages[1].Name != "oil" || p.Stages[1].Service.Count != 1 {
		t.Fatalf("snapshot = %+v", p)
	}
}

func TestSnapshotIsDetachedCopy(t *testing.T) {
	c := New()
	c.Counter("x").Add(1)
	s := c.Snapshot()
	s.Counters["x"] = 999
	if c.Snapshot().Counters["x"] != 1 {
		t.Fatal("mutating a snapshot leaked into the collector")
	}
}

func TestPublishExpvar(t *testing.T) {
	c := New()
	c.Counter("pipeline.pub.wall_ns").Add(123)
	c.Pattern(KindPipeline, "Process.L1", []string{"crop"}, 0).Stages[0].Service.Record(5)
	c.PublishExpvar("obs-test-publish")
	c.PublishExpvar("obs-test-publish") // idempotent, must not panic
	v := expvar.Get("obs-test-publish")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar payload not JSON: %v", err)
	}
	if s.Counters["pipeline.pub.wall_ns"] != 123 || len(s.Patterns) != 1 ||
		s.Patterns[0].Name != "Process.L1" || s.Patterns[0].Stages[0].Name != "crop" || s.Patterns[0].Stages[0].Service.Sum != 5 {
		t.Fatalf("payload = %+v", s)
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.snapshot()
	last := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < last {
			t.Fatalf("quantile not monotone at q=%.2f: %f < %f", q, v, last)
		}
		last = v
	}
	if s.Quantile(-1) != s.Quantile(0) || math.IsNaN(s.Quantile(2)) {
		t.Fatal("out-of-range q must clamp")
	}
}
