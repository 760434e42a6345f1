package obs

import "sort"

// Pattern is the instrument set of one parrt pattern instance,
// registered with Collector.Pattern under its kind and name. Every
// instrument is a pointer into the collector, so copies of a Pattern
// record into the same instance. The zero Pattern is the
// uninstrumented one: each record through it is a nil-receiver no-op
// costing one branch.
type Pattern struct {
	Kind, Name string

	Wall           *Counter   // run wall time (ns)
	Items          *Counter   // masterworker tasks, parallelfor iterations
	QueueCap       *Gauge     // pipeline: inter-stage buffer capacity
	ReorderPending *Gauge     // pipeline: elements the reorder buffer holds back
	ReorderHeld    *Counter   // pipeline: out-of-order arrivals held
	Chunk          *Histogram // parallelfor and masterworker: chunk latency (ns); a task is a chunk of one
	Faults         Faults

	Stages  []Stage  // pipeline only, indexed by stage
	Workers []Worker // masterworker and parallelfor only, indexed by worker
}

// Stage is the instrument set of one pipeline stage.
type Stage struct {
	Name     string
	Service  *Histogram // per-item service time (ns)
	Blocked  *Counter   // time blocked pushing downstream (ns)
	QueueSum *Counter   // input-queue occupancy, summed at each dequeue
	Replicas *Gauge     // worker lanes in the last plan
}

// Worker is the instrument set of one master/worker or parallel-for
// worker.
type Worker struct {
	Items *Counter
	Busy  *Counter // ns
}

// Faults are the fault-layer counters of a pattern instance.
type Faults struct {
	Errors   *Counter // items that exhausted their policy
	Retries  *Counter // extra attempts under RetryItem
	Timeouts *Counter // per-item timeout expiries
	Drained  *Counter // items discarded during a cancel or fail-fast drain
}

// Enabled reports whether p is registered with a collector.
func (p *Pattern) Enabled() bool { return p.Wall != nil }

// patternKey identifies one registered pattern instance.
type patternKey struct{ kind, name string }

// Pattern returns the instruments of the pattern instance (kind, name),
// registering it on first use; the name is kept exactly as given. A
// later registration of the same instance gets the same instruments,
// grown to at least len(stages) stages and workers workers, and renames
// stage i to stages[i]. The returned Pattern's slices belong to the
// caller. Returns the zero Pattern on a nil Collector.
func (c *Collector) Pattern(kind, name string, stages []string, workers int) Pattern {
	if c == nil {
		return Pattern{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := patternKey{kind, name}
	p := c.patterns[k]
	if p == nil {
		p = &Pattern{
			Kind: kind, Name: name,
			Wall: new(Counter), Items: new(Counter),
			QueueCap: new(Gauge), ReorderPending: new(Gauge), ReorderHeld: new(Counter),
			Chunk:  new(Histogram),
			Faults: Faults{new(Counter), new(Counter), new(Counter), new(Counter)},
		}
		c.patterns[k] = p
	}
	for i, s := range stages {
		if i == len(p.Stages) {
			p.Stages = append(p.Stages, Stage{Service: new(Histogram), Blocked: new(Counter), QueueSum: new(Counter), Replicas: new(Gauge)})
		}
		p.Stages[i].Name = s
	}
	for len(p.Workers) < workers {
		p.Workers = append(p.Workers, Worker{new(Counter), new(Counter)})
	}
	out := *p
	out.Stages = append([]Stage(nil), p.Stages...)
	out.Workers = append([]Worker(nil), p.Workers...)
	return out
}

// reset zeroes every instrument of p.
func (p *Pattern) reset() {
	for _, ct := range []*Counter{p.Wall, p.Items, p.ReorderHeld, p.Faults.Errors, p.Faults.Retries, p.Faults.Timeouts, p.Faults.Drained} {
		ct.v.Store(0)
	}
	p.QueueCap.v.Store(0)
	p.ReorderPending.v.Store(0)
	p.Chunk.reset()
	for _, s := range p.Stages {
		s.Service.reset()
		s.Blocked.v.Store(0)
		s.QueueSum.v.Store(0)
		s.Replicas.v.Store(0)
	}
	for _, w := range p.Workers {
		w.Items.v.Store(0)
		w.Busy.v.Store(0)
	}
}

// PatternSnapshot is a point-in-time copy of one pattern instance.
type PatternSnapshot struct {
	Kind           string          `json:"kind"`
	Name           string          `json:"name"`
	WallNs         int64           `json:"wall_ns"`
	Items          int64           `json:"items,omitempty"`
	QueueCap       int64           `json:"queue_cap,omitempty"`
	ReorderPending int64           `json:"reorder_pending,omitempty"`
	ReorderHeld    int64           `json:"reorder_held,omitempty"`
	ChunkNs        HistSnapshot    `json:"chunk_ns"`
	FaultErrors    int64           `json:"fault_errors,omitempty"`
	FaultRetries   int64           `json:"fault_retries,omitempty"`
	FaultTimeouts  int64           `json:"fault_timeouts,omitempty"`
	FaultDrained   int64           `json:"fault_drained,omitempty"`
	Stages         []StageSnapshot `json:"stages,omitempty"`
	Workers        []WorkerMetrics `json:"workers,omitempty"`
}

// StageSnapshot is a point-in-time copy of one pipeline stage.
type StageSnapshot struct {
	Name      string       `json:"name"`
	Service   HistSnapshot `json:"service_ns"`
	BlockedNs int64        `json:"blocked_ns,omitempty"`
	QueueSum  int64        `json:"queue_sum,omitempty"`
	Replicas  int64        `json:"replicas,omitempty"`
}

// snapshot copies p with per-field atomic reads.
func (p *Pattern) snapshot() PatternSnapshot {
	s := PatternSnapshot{
		Kind: p.Kind, Name: p.Name,
		WallNs:         p.Wall.Value(),
		Items:          p.Items.Value(),
		QueueCap:       p.QueueCap.Value(),
		ReorderPending: p.ReorderPending.Value(),
		ReorderHeld:    p.ReorderHeld.Value(),
		ChunkNs:        p.Chunk.snapshot(),
		FaultErrors:    p.Faults.Errors.Value(),
		FaultRetries:   p.Faults.Retries.Value(),
		FaultTimeouts:  p.Faults.Timeouts.Value(),
		FaultDrained:   p.Faults.Drained.Value(),
	}
	for _, st := range p.Stages {
		s.Stages = append(s.Stages, StageSnapshot{
			Name:      st.Name,
			Service:   st.Service.snapshot(),
			BlockedNs: st.Blocked.Value(),
			QueueSum:  st.QueueSum.Value(),
			Replicas:  st.Replicas.Value(),
		})
	}
	for w, wk := range p.Workers {
		s.Workers = append(s.Workers, WorkerMetrics{Index: w, Items: wk.Items.Value(), BusyNs: wk.Busy.Value()})
	}
	return s
}

// snapshotPatterns copies every registered instance, sorted by kind
// then name. The caller holds c.mu.
func (c *Collector) snapshotPatterns() []PatternSnapshot {
	if len(c.patterns) == 0 {
		return nil
	}
	out := make([]PatternSnapshot, 0, len(c.patterns))
	for _, p := range c.patterns {
		out = append(out, p.snapshot())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}
