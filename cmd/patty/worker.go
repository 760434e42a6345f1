package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"patty/internal/fleet"
	"patty/internal/jobs"
	"patty/internal/netchaos"
	"patty/internal/obs"
	"patty/internal/report"
	"patty/internal/tuning"
)

// workerObjective reconstructs the shard objective from the wire spec —
// the worker half of the contract whose coordinator half is
// tuneSpec.evalSpec(). Sharing evalSpec.workload is what makes a cost
// measured here interchangeable with one measured in the coordinator's
// process.
func workerObjective(spec json.RawMessage) (tuning.Objective, error) {
	var es evalSpec
	if len(spec) > 0 {
		if err := json.Unmarshal(spec, &es); err != nil {
			return nil, fmt.Errorf("bad eval spec: %w", err)
		}
	}
	_, _, obj := es.workload(context.Background())
	return obj, nil
}

// cmdWorker runs one fleet worker: a hardened HTTP intake that admits
// POST /shards through the same supervised jobs.Service `patty serve`
// uses, evaluates each leased shard, and (with -cache-dir) journals
// every measurement into the shared content-addressed store so a
// restarted worker answers repeated configurations instead of
// re-measuring them.
// It drains like serve: the first SIGINT/SIGTERM stops admission and
// lets in-flight shards finish, a second one hard-exits.
func cmdWorker(ctx context.Context, args []string) error {
	fs := newFlagSet("worker")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 2, "evaluation-pool size")
	queue := fs.Int("queue", 16, "admission-queue bound; a full queue sheds shards with 503")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "hard deadline for the shutdown drain")
	cacheDir := fs.String("cache-dir", "", "persistent content-addressed evaluation store: measured configs answer from it across searches and restarts")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "evaluation-store size bound in bytes (0: 64 MiB); oldest segments evicted first")
	chaosFlag := fs.String("chaos", "", `wire-fault plan JSON (or "gate"): wrap the intake in a deterministic server-side fault injector`)
	byzRate := fs.Int("byzantine-rate", 0, "percent of evaluations reported with corrupted costs (byzantine drills; 100 = lie on every config)")
	byzSeed := fs.Int64("byzantine-seed", 1, "seed selecting which evaluations lie")
	fs.Parse(args)

	cache, closeCache, err := openEvalStore("worker", *cacheDir, *cacheMaxBytes)
	if err != nil {
		return err
	}
	defer closeCache()
	hook := workerObjective
	if *byzRate > 0 {
		// A drill liar: answer fast and well-formed, but corrupt a
		// deterministic fraction of costs. The coordinator's cross-check
		// must quarantine this worker and repair its contributions.
		rate, bseed := *byzRate, *byzSeed
		hook = func(spec json.RawMessage) (tuning.Objective, error) {
			obj, err := workerObjective(spec)
			if err != nil {
				return nil, err
			}
			return func(a map[string]int) float64 {
				cost := obj(a)
				if faultsConfig(a, rate, bseed) {
					return cost*3 + 17
				}
				return cost
			}, nil
		}
	}
	svc := jobs.New(jobs.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Collector:  metrics,
	})
	mux := fleet.NewWorker(svc, hook, cache, metrics).Mux()
	mountProbes(mux, svc)
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		snap := metrics.Snapshot()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if h, ok := obs.AnalyzeService(snap); ok {
			fmt.Fprint(w, report.ServiceTable(h))
		}
		if fh, ok := obs.AnalyzeFleet(snap); ok {
			fmt.Fprint(w, report.FleetTable(fh))
		}
		if ch, ok := obs.AnalyzeCache(snap); ok {
			fmt.Fprint(w, report.CacheTable(ch))
		}
	})

	var handler http.Handler = mux
	if ps, err := parseChaosPlan(*chaosFlag); err != nil {
		return err
	} else if ps != nil {
		handler = netchaos.New(ps.Plan()).Instrument(metrics).Middleware(handler)
	}
	return serveUntilDone(ctx, "worker", *addr, handler, svc, *drainTimeout, "shards")
}
