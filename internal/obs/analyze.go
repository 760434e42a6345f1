package obs

import "fmt"

// Pattern kinds, as registered with Collector.Pattern.
const (
	KindPipeline     = "pipeline"
	KindMasterWorker = "masterworker"
	KindParallelFor  = "parallelfor"
)

// SaturationThreshold is the utilization above which a stage counts
// as saturated: adding capacity elsewhere cannot improve throughput.
// The bottleneck table (internal/report) marks such a stage.
const SaturationThreshold = 0.95

// StageMetrics summarizes one pipeline stage from a snapshot.
type StageMetrics struct {
	Index   int
	Name    string       // stage name given at registration, or "stage i" when empty
	Service HistSnapshot // per-item service time (ns)
	// BlockedNs is time stage workers spent blocked pushing downstream
	// — back-pressure from the next stage or the reorder buffer.
	BlockedNs int64
	// Replicas is the stage's worker count during the run.
	Replicas int64
	// Utilization is busy time per worker lane over the wall time:
	// Service.Sum / (Replicas * WallNs). 1.0 means the stage computed
	// for the entire run — it bounds pipeline throughput.
	Utilization float64
	// QueueFill is the mean input-queue occupancy (observed at each
	// dequeue) divided by the queue capacity. High fill means the
	// stage is the consumer of a congested edge.
	QueueFill float64
}

// WorkerMetrics summarizes one master/worker or parallel-for worker.
type WorkerMetrics struct {
	Index  int
	Items  int64
	BusyNs int64
}

// PatternAnalysis is the per-pattern-instance digest of a Snapshot:
// the inputs to the bottleneck table (internal/report) and to the
// tuning loop's fault test (tuning.Observed, which costs a run that
// lost work +Inf).
type PatternAnalysis struct {
	Kind   string // KindPipeline, KindMasterWorker or KindParallelFor
	Name   string
	WallNs int64
	Items  int64

	Stages  []StageMetrics  // pipeline only, indexed by stage
	Workers []WorkerMetrics // masterworker / parallelfor only

	// BottleneckStage indexes the stage with the highest utilization
	// (-1 when there are no stages).
	BottleneckStage int
	// BottleneckUtil is that stage's utilization (or the busiest
	// worker's share of wall time for worker patterns).
	BottleneckUtil float64
	// QueuePressure is the highest mean queue fill across stages.
	QueuePressure float64
	// Imbalance is max/mean busy time across workers (worker
	// patterns) or across per-lane stage busy times (pipelines);
	// 1.0 is perfectly balanced, 0 means no signal.
	Imbalance float64

	// Reorder statistics (pipelines with order-preserving replicated
	// stages): peak held-back elements and total out-of-order holds.
	ReorderPending int64
	ReorderHeld    int64

	// ChunkNs is the chunk-latency distribution (parallelfor and
	// masterworker, whose tasks are chunks of one).
	ChunkNs HistSnapshot

	// Fault-layer counters: items that exhausted their fault policy,
	// extra attempts made under RetryItem, per-item timeout expiries,
	// and items discarded during a cancel or fail-fast drain.
	FaultErrors   int64
	FaultRetries  int64
	FaultTimeouts int64
	FaultDrained  int64
}

// Faulted reports whether the run recorded any fault-layer activity —
// the tuner uses it to mark a configuration's measurement as tainted.
func (a PatternAnalysis) Faulted() bool {
	return a.FaultErrors > 0 || a.FaultRetries > 0 || a.FaultTimeouts > 0 || a.FaultDrained > 0
}

// Bottleneck names the bottleneck: the top stage for pipelines, the
// busiest worker otherwise. Empty when the analysis has no signal.
func (a PatternAnalysis) Bottleneck() string {
	if a.BottleneckStage >= 0 && a.BottleneckStage < len(a.Stages) {
		return a.Stages[a.BottleneckStage].Name
	}
	if len(a.Workers) > 0 {
		busiest := 0
		for i, w := range a.Workers {
			if w.BusyNs > a.Workers[busiest].BusyNs {
				busiest = i
			}
		}
		return fmt.Sprintf("worker %d", a.Workers[busiest].Index)
	}
	return ""
}

// Saturated reports whether the bottleneck utilization exceeds
// SaturationThreshold.
func (a PatternAnalysis) Saturated() bool {
	return a.BottleneckUtil >= SaturationThreshold
}

// Analyze digests a snapshot into one PatternAnalysis per pattern
// instance registered in it, sorted by kind then name.
func Analyze(s Snapshot) []PatternAnalysis {
	out := make([]PatternAnalysis, 0, len(s.Patterns))
	for _, p := range s.Patterns {
		a := PatternAnalysis{
			Kind:            p.Kind,
			Name:            p.Name,
			WallNs:          p.WallNs,
			Items:           p.Items,
			Workers:         p.Workers,
			BottleneckStage: -1,
			ReorderPending:  p.ReorderPending,
			ReorderHeld:     p.ReorderHeld,
			ChunkNs:         p.ChunkNs,
			FaultErrors:     p.FaultErrors,
			FaultRetries:    p.FaultRetries,
			FaultTimeouts:   p.FaultTimeouts,
			FaultDrained:    p.FaultDrained,
		}
		for i, st := range p.Stages {
			name := st.Name
			if name == "" {
				name = fmt.Sprintf("stage %d", i)
			}
			a.Stages = append(a.Stages, StageMetrics{
				Index:     i,
				Name:      name,
				Service:   st.Service,
				BlockedNs: st.BlockedNs,
				Replicas:  st.Replicas,
			})
		}
		finalize(&a, p.Stages, p.QueueCap)
		out = append(out, a)
	}
	return out
}

// finalize computes the derived ratios once all raw values are in.
func finalize(a *PatternAnalysis, raw []StageSnapshot, queueCap int64) {
	wall := float64(a.WallNs)
	for i := range a.Stages {
		st := &a.Stages[i]
		lanes := st.Replicas
		if lanes < 1 {
			lanes = 1
			st.Replicas = 1
		}
		if wall > 0 {
			st.Utilization = float64(st.Service.Sum) / (float64(lanes) * wall)
			if st.Utilization > 1 {
				st.Utilization = 1
			}
		}
		if queueCap > 0 && st.Service.Count > 0 {
			st.QueueFill = float64(raw[i].QueueSum) / float64(st.Service.Count) / float64(queueCap)
			if st.QueueFill > 1 {
				st.QueueFill = 1
			}
		}
		if st.Utilization > a.BottleneckUtil {
			a.BottleneckUtil = st.Utilization
			a.BottleneckStage = i
		}
		if st.QueueFill > a.QueuePressure {
			a.QueuePressure = st.QueueFill
		}
	}
	if len(a.Stages) > 0 {
		if a.BottleneckStage < 0 {
			a.BottleneckStage = 0
		}
		a.Imbalance = imbalance(a.Stages, func(s StageMetrics) int64 {
			return s.Service.Sum / s.Replicas
		})
		if a.Items == 0 {
			a.Items = a.Stages[0].Service.Count
		}
	}
	if len(a.Workers) > 0 {
		a.Imbalance = imbalance(a.Workers, func(w WorkerMetrics) int64 { return w.BusyNs })
		if wall > 0 {
			var maxBusy int64
			for _, w := range a.Workers {
				if w.BusyNs > maxBusy {
					maxBusy = w.BusyNs
				}
			}
			u := float64(maxBusy) / wall
			if u > 1 {
				u = 1
			}
			if u > a.BottleneckUtil {
				a.BottleneckUtil = u
			}
		}
	}
	if a.Items == 0 && a.ChunkNs.Count > 0 {
		a.Items = a.ChunkNs.Count
	}
}

// imbalance returns max/mean of the extracted values, or 0 when the
// mean is zero.
func imbalance[T any](xs []T, f func(T) int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max int64
	for _, x := range xs {
		v := f(x)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(xs))
	return float64(max) / mean
}
