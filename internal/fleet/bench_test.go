package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"patty/internal/obs"
	"patty/internal/perfmodel"
	"patty/internal/tuning"
)

// fleetTuneSpace is the space `patty tune` searches (cmd/patty's
// tuneWorkload at 8 cores): an oil-stage replication sweep, a fusion
// flag and the sequential fallback, over the perfmodel pipeline.
func fleetTuneSpace() ([]tuning.Dim, map[string]int, tuning.Objective) {
	stages := []perfmodel.Stage{
		{Name: "crop", Time: 200, Replicable: true},
		{Name: "histo", Time: 240, Replicable: true},
		{Name: "oil", Time: 1600, Jitter: 300, Replicable: true},
		{Name: "conv", Time: 180, Replicable: true},
		{Name: "add", Time: 60},
	}
	dims := []tuning.Dim{
		{Key: "repl.oil", Min: 1, Max: 8},
		{Key: "fuse.crop.histo", Min: 0, Max: 1},
		{Key: "sequential", Min: 0, Max: 1},
	}
	start := map[string]int{"repl.oil": 1, "fuse.crop.histo": 0, "sequential": 1}
	obj := func(a map[string]int) float64 {
		return float64(perfmodel.Simulate(stages, perfmodel.Config{
			Cores:       8,
			Items:       256,
			Replication: []int{1, 1, a["repl.oil"], 1, 1},
			Fuse:        []bool{a["fuse.crop.histo"] == 1, false, false, false},
			Sequential:  a["sequential"] == 1,
		}).Makespan)
	}
	return dims, start, obj
}

// BenchmarkFleetTune runs LinearSearch over two in-process workers
// whose every evaluation waits 2 ms, and reports the shard round trips
// per search and the share of merged evaluations the search used.
func BenchmarkFleetTune(b *testing.B) {
	dims, start, obj := fleetTuneSpace()
	var urls []string
	var colls []*obs.Collector
	for i := 0; i < 2; i++ {
		url, c := startWorker(b, func(json.RawMessage) (tuning.Objective, error) {
			return func(a map[string]int) float64 {
				time.Sleep(2 * time.Millisecond)
				return obj(a)
			}, nil
		}, "")
		urls = append(urls, url)
		colls = append(colls, c)
	}
	useful := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, st, err := Tune(context.Background(), tuning.LinearSearch{}, dims, start, 150, Options{
			Workers:        urls,
			LocalObjective: obj,
		})
		if err != nil {
			b.Fatal(err)
		}
		useful += float64(res.Evaluations) / float64(st.Merged)
	}
	trips := int64(0)
	for _, c := range colls {
		trips += c.Snapshot().Counters["fleet.worker.shards"]
	}
	b.ReportMetric(float64(trips)/float64(b.N), "round_trips/op")
	b.ReportMetric(useful/float64(b.N), "useful_ratio")
}
