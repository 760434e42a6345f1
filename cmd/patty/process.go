package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"patty/internal/evalcache"
	"patty/internal/jobs"
)

// The skeleton `patty serve` and `patty worker` share: the probes they
// both answer, the evaluation store they both open, and one
// listen → banner → serve → drain → shutdown sequence.

// mountProbes adds the endpoints every patty server process answers:
// liveness, readiness (503 while svc drains) and the metrics snapshot.
// Each process mounts its own /statusz page.
func mountProbes(mux *http.ServeMux, svc *jobs.Service) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if svc.Draining() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, metrics.Snapshot())
	})
}

// openEvalStore opens the content-addressed evaluation store in dir
// (nil when dir is empty), reports on stdout, as `patty <name>`, what
// its recovery repaired, and returns the function that closes it.
func openEvalStore(name, dir string, maxBytes int64) (*evalcache.Store, func(), error) {
	if dir == "" {
		return nil, func() {}, nil
	}
	cache, err := evalcache.Open(dir, evalcache.Options{MaxBytes: maxBytes, Collector: metrics})
	if err != nil {
		return nil, nil, err
	}
	if rec := cache.Recovery(); rec.TornBytes > 0 || len(rec.Quarantined) > 0 {
		fmt.Printf("patty %s: cache repaired (%d entr(y/ies) recovered, %d torn byte(s) dropped, %d segment(s) quarantined)\n",
			name, rec.Entries, rec.TornBytes, len(rec.Quarantined))
	}
	return cache, func() { cache.Close() }, nil
}

// serveUntilDone listens on addr, prints the one line harnesses parse
// ("patty <name>: listening on http://…"), and serves h until ctx ends.
// It then drains svc: admission stops, in-flight work finishes, and
// past drainTimeout the remaining work (units, say "jobs") is
// canceled. The HTTP listener stays up until the drain ends so clients
// can still poll while work winds down.
func serveUntilDone(ctx context.Context, name, addr string, h http.Handler, svc *jobs.Service, drainTimeout time.Duration, units string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("patty %s: listening on http://%s\n", name, ln.Addr())
	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Printf("patty %s: drain deadline hit, canceled remaining %s\n", name, units)
	} else {
		fmt.Printf("patty %s: drained cleanly\n", name)
	}
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	defer scancel()
	hs.Shutdown(sctx)
	return nil
}
