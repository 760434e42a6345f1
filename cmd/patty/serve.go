package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"patty/internal/difftest"
	"patty/internal/evalcache"
	"patty/internal/fleet"
	"patty/internal/jobs"
	"patty/internal/store"
	"patty/internal/study"
)

// jobRequest is the POST /jobs body. Kind selects the workload; the
// tune fields are embedded flat, fuzz and study add theirs beside it.
// The same JSON is journaled verbatim into the -store-dir WAL, so a
// restarted server rebuilds the identical Runner from it.
type jobRequest struct {
	Kind string `json:"kind"` // tune | fuzz | study | bench
	// Tenant attributes the job for quota and fair-share purposes; the
	// X-Tenant header takes precedence over this field.
	Tenant string `json:"tenant,omitempty"`
	// Sources, when present, names the program this job is about
	// (filename -> Go source). With -cache-dir its canonical hash —
	// invariant under formatting, comments, and local renames — becomes
	// the job's content address, so a reformatted resubmission of the
	// same program, by any tenant, before or after a restart, answers
	// from the evaluation store without re-running.
	Sources map[string]string `json:"sources,omitempty"`
	tuneSpec
	cliOnly
	// Fuzz fields.
	Seed    int64 `json:"seed,omitempty"`
	N       int   `json:"n,omitempty"`
	Configs int   `json:"configs,omitempty"`
	// Study fields.
	Measured bool `json:"measured,omitempty"`
	// Bench fields: a calibrated no-op job for load harnesses.
	SleepMs int64 `json:"sleep_ms,omitempty"`
}

// cliOnly catches the `patty tune` settings that name server files: a
// journal path (checkpoint) and an evaluation store (cache_dir,
// cache_max_bytes). tuneSpec never decodes them; a body that names one
// is refused (runnerFor), so they are never set and never journaled.
type cliOnly struct {
	Checkpoint    json.RawMessage `json:"checkpoint,omitempty"`
	CacheDir      json.RawMessage `json:"cache_dir,omitempty"`
	CacheMaxBytes json.RawMessage `json:"cache_max_bytes,omitempty"`
}

// err names the first CLI-only setting the body set, or is nil.
func (c cliOnly) err() error {
	for _, f := range []struct {
		name string
		raw  json.RawMessage
	}{{"checkpoint", c.Checkpoint}, {"cache_dir", c.CacheDir}, {"cache_max_bytes", c.CacheMaxBytes}} {
		if f.raw != nil {
			return fmt.Errorf("%q is a patty tune flag, not a job field: the server chooses its own files", f.name)
		}
	}
	return nil
}

// fuzzJobResult is the JSON result of a serve fuzz job.
type fuzzJobResult struct {
	Programs    int            `json:"programs"`
	Kinds       map[string]int `json:"kinds"`
	Divergences int            `json:"divergences"`
	Seeds       []int64        `json:"divergent_seeds,omitempty"`
}

// server routes HTTP onto a jobs.Service.
type server struct {
	svc     *jobs.Service
	ckptDir string
	// cache, when non-nil, is the shared content-addressed evaluation
	// store (-cache-dir): whole deterministic jobs and individual tune
	// evaluations are memoized in it, across tenants and restarts.
	cache *evalcache.Store
	// intake is the admission breaker: shed submissions trip it and its
	// remaining cooldown becomes the 503 Retry-After value, so the
	// advertised backoff grows while an overload persists.
	intake *jobs.Breaker
}

// newServer wires the HTTP surface onto a job service.
func newServer(svc *jobs.Service, ckptDir string) *server {
	return &server{svc: svc, ckptDir: ckptDir, intake: jobs.NewBreaker(3, time.Second)}
}

// jobCacheKey derives the content address of a whole job, or ok=false
// when the job must not be memoized. Deterministic kinds qualify; bench
// (a calibrated sleep measured for its latency) never does. The program
// slot carries the canonical hash of the submitted sources when present
// — that is what makes a reformatted or alpha-renamed resubmission hit
// — and the config slot hashes the normalized spec, so any field that
// changes the answer (budget, algo, seeds, fleet shape) changes the
// address. Tenant is deliberately absent: the answer to a pure job is
// tenant-independent, which is exactly why the store may be shared.
func jobCacheKey(req jobRequest) (evalcache.Key, bool) {
	var seed int64
	switch req.Kind {
	case "tune":
		seed = req.FaultSeed
	case "fuzz", "study":
		seed = req.Seed
	default:
		return evalcache.Key{}, false
	}
	prog := "job:" + req.Kind
	if len(req.Sources) > 0 {
		h, err := evalcache.ProgramHash(req.Sources)
		if err != nil {
			// Unparseable sources cannot be content-addressed; run the
			// job uncached rather than guessing an identity.
			return evalcache.Key{}, false
		}
		prog = h
	}
	norm := req
	norm.Tenant = ""   // attribution, not identity
	norm.Sources = nil // carried by the program slot
	cfg, err := evalcache.SpecHash("serve-job/v1", norm)
	if err != nil {
		return evalcache.Key{}, false
	}
	return evalcache.Key{Program: prog, Config: cfg, Seed: seed}, true
}

// memoize wraps a job runner in the store: an identical job already
// answered — by anyone, including before the last restart — returns its
// recorded result without running; a fresh run records its marshaled
// result on the way out. Failed or interrupted runs are never recorded.
func (s *server) memoize(req jobRequest, run jobs.Runner) jobs.Runner {
	key, ok := jobCacheKey(req)
	if !ok {
		return run
	}
	tenant := req.Tenant
	return func(ctx context.Context) (any, error) {
		if e, hit := s.cache.Get(key, tenant); hit && len(e.Payload) > 0 {
			return json.RawMessage(e.Payload), nil
		}
		res, err := run(ctx)
		if err != nil {
			return res, err
		}
		if payload, merr := json.Marshal(res); merr == nil {
			s.cache.Put(evalcache.Entry{
				Program: key.Program, Config: key.Config, Seed: key.Seed,
				Payload: payload, Tenant: tenant,
			})
		}
		return res, nil
	}
}

// runnerFor translates a validated request into the job's Runner.
// Resume-checkpoint paths default into -checkpoint-dir, named by
// journalName from the job parameters, so a recovered job after a
// crash re-attaches to the same journal — the tuner resumes its search
// instead of restarting it. With a store attached, deterministic jobs
// are additionally memoized whole (see memoize); recovery goes through
// this same path, so a resubmitted unfinished job whose twin already
// finished answers from the store.
func (s *server) runnerFor(req jobRequest) (jobs.Runner, error) {
	if err := req.cliOnly.err(); err != nil {
		return nil, err
	}
	run, err := s.buildRunner(req)
	if err != nil || s.cache == nil {
		return run, err
	}
	return s.memoize(req, run), nil
}

// journalName is the file in -checkpoint-dir that a served tune or fuzz
// job resumes from. It names the question the job asks, so only a
// resubmission of that question resumes it: a tune journal carries
// algo, budget, breaker threshold and the workload's store address
// (cacheIdentity: cores and fault shape, not eval_delay_ms pacing); a
// fuzz journal carries seed, count and configurations per program.
func journalName(req jobRequest) string {
	if req.Kind == "fuzz" {
		return fmt.Sprintf("fuzz-s%d-n%d-k%d.ckpt", req.Seed, req.N, req.Configs)
	}
	spec := req.tuneSpec.withDefaults()
	prog, seed := spec.cacheIdentity()
	return fmt.Sprintf("tune-%s-b%d-t%d-%.16s-f%d.ckpt", spec.Algo, spec.Budget, spec.BreakerThreshold, prog, seed)
}

// buildRunner is runnerFor without the memoization layer.
func (s *server) buildRunner(req jobRequest) (jobs.Runner, error) {
	switch req.Kind {
	case "tune":
		spec := req.tuneSpec.withDefaults()
		if spec.NetChaos != nil {
			if err := spec.NetChaos.Validate(); err != nil {
				return nil, err
			}
		}
		if s.ckptDir != "" {
			spec.Checkpoint = filepath.Join(s.ckptDir, journalName(req))
		}
		if s.cache != nil {
			// Even when the whole job misses (say, a different budget),
			// the search itself shares every measured configuration
			// through the same store.
			spec.cache = s.cache
			spec.cacheTenant = req.Tenant
		}
		return func(ctx context.Context) (any, error) {
			return runTune(ctx, spec)
		}, nil
	case "fuzz":
		if req.N <= 0 {
			req.N = 50
		}
		if req.Configs <= 0 {
			req.Configs = 2
		}
		seed, n := req.Seed, req.N
		opt := difftest.Options{Configs: req.Configs}
		ckpt := ""
		if s.ckptDir != "" {
			ckpt = filepath.Join(s.ckptDir, journalName(req))
		}
		return func(ctx context.Context) (any, error) {
			b, _, err := difftest.NewBatch(ckpt, seed, n)
			if err != nil {
				return nil, err
			}
			sum, err := b.Run(ctx, func(_ int, p *difftest.Prog) (*difftest.Result, error) {
				return difftest.Check(p, opt), nil
			}, nil)
			if err != nil {
				return nil, err
			}
			res := &fuzzJobResult{Programs: sum.Programs, Kinds: sum.Kinds, Divergences: len(sum.Divergences)}
			for _, d := range sum.Divergences {
				res.Seeds = append(res.Seeds, d.Div.Seed)
			}
			return res, nil
		}, nil
	case "study":
		seed, measured := req.Seed, req.Measured
		if seed == 0 {
			seed = study.DefaultSeed
		}
		ckpt := ""
		if measured && s.ckptDir != "" {
			ckpt = filepath.Join(s.ckptDir, "study-outcome.ckpt")
		}
		return func(ctx context.Context) (any, error) {
			outcome := study.PaperOutcome()
			if measured {
				var err error
				if ckpt != "" {
					outcome, _, err = study.MeasuredOutcomeCached(ckpt)
				} else {
					outcome, err = study.MeasuredOutcome()
				}
				if err != nil {
					return nil, err
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return study.Run(seed, outcome), nil
		}, nil
	case "bench":
		// A calibrated sleep job: the serve, chaos and fairness tests
		// load the queue with it, without dragging tuner cost variance
		// into their timing. Honors cancellation.
		sleep := time.Duration(req.SleepMs) * time.Millisecond
		if sleep < 0 {
			return nil, fmt.Errorf("sleep_ms must be >= 0")
		}
		return func(ctx context.Context) (any, error) {
			if sleep > 0 {
				t := time.NewTimer(sleep)
				defer t.Stop()
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-t.C:
				}
			}
			return map[string]int64{"slept_ms": sleep.Milliseconds()}, nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown job kind %q (want tune, fuzz, study or bench)", req.Kind)
	}
}

// maxTenantLen bounds tenant ids; longer (or malformed) ones are 400s.
const maxTenantLen = 64

// tenantOf resolves the submission's tenant: the X-Tenant header wins
// over the body field; absent both, jobs.DefaultTenant applies (via
// the service). The id is outside input that is journaled, labels the
// per-tenant metric families and is printed in /statusz, so it must be
// short and [A-Za-z0-9._-]: bounded and printable.
func tenantOf(r *http.Request, req jobRequest) (string, error) {
	id := r.Header.Get("X-Tenant")
	if id == "" {
		id = req.Tenant
	}
	if id == "" {
		return "", nil
	}
	if len(id) > maxTenantLen {
		return "", fmt.Errorf("tenant id longer than %d bytes", maxTenantLen)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return "", fmt.Errorf("tenant id %q: only [A-Za-z0-9._-] allowed", id)
		}
	}
	return id, nil
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !fleet.DecodeJSON(w, r, fleet.MaxBodyBytes, &req) {
		return
	}
	tenant, err := tenantOf(r, req)
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, err)
		return
	}
	req.Tenant = tenant
	run, err := s.runnerFor(req)
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The canonical body — not the raw wire bytes — is journaled, so
	// recovery decodes exactly what admission validated.
	spec, err := json.Marshal(req)
	if err != nil {
		fleet.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	id, err := s.svc.SubmitJob(jobs.Submission{
		Tenant: tenant,
		Kind:   req.Kind,
		Spec:   spec,
		Run:    run,
	})
	var qe *jobs.QuotaError
	switch {
	case errors.As(err, &qe):
		// Over-quota is the tenant's problem, not the service's: answer
		// 429 with the (jittered) bucket-refill estimate and leave the
		// intake breaker alone — its cooldown tracks overload, and one
		// noisy tenant must not grow every caller's advertised backoff.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(qe.RetryAfter)))
		fleet.WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrOverloaded), errors.Is(err, jobs.ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(jobs.ShedRetryAfter(s.intake)))
		fleet.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		fleet.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.intake.Record(jobs.IntakeKey, false)
	fleet.WriteJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// retryAfterSecs renders a duration as whole Retry-After seconds,
// floored at 1.
func retryAfterSecs(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("wait") != "" {
		info, err := s.svc.Wait(r.Context(), id)
		if err != nil {
			s.jobError(w, err)
			return
		}
		fleet.WriteJSON(w, http.StatusOK, info)
		return
	}
	info, err := s.svc.Status(id)
	if err != nil {
		s.jobError(w, err)
		return
	}
	fleet.WriteJSON(w, http.StatusOK, info)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, info, err := s.svc.Result(r.PathValue("id"))
	if err != nil {
		s.jobError(w, err)
		return
	}
	fleet.WriteJSON(w, http.StatusOK, map[string]any{"info": info, "result": res})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.svc.Cancel(id); err != nil {
		s.jobError(w, err)
		return
	}
	info, err := s.svc.Status(id)
	if err != nil {
		s.jobError(w, err)
		return
	}
	fleet.WriteJSON(w, http.StatusOK, info)
}

// jobError maps service errors to status codes.
func (s *server) jobError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		fleet.WriteError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrNotFinished):
		fleet.WriteError(w, http.StatusConflict, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		fleet.WriteError(w, http.StatusRequestTimeout, err)
	default:
		fleet.WriteError(w, http.StatusInternalServerError, err)
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		list := s.svc.Jobs() // accepted-seq order: stable across restarts
		if tenant := r.URL.Query().Get("tenant"); tenant != "" {
			filtered := list[:0]
			for _, info := range list {
				if info.Tenant == tenant {
					filtered = append(filtered, info)
				}
			}
			list = filtered
		}
		if list == nil {
			list = []jobs.Info{}
		}
		fleet.WriteJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mountProbes(mux, s.svc)
	return mux
}

// recoverJobs replays a durable store into a fresh service: terminal
// jobs restore with their results (never to run again), acknowledged
// but unfinished jobs re-enqueue under their original identity — tune
// jobs re-attach to their resume checkpoints via the deterministic
// paths runnerFor derives. Returns (restored, resumed) counts.
func recoverJobs(svc *jobs.Service, srv *server, st *store.Store) (int, int) {
	svc.SetNextSeq(st.MaxSeq())
	restored, resumed := 0, 0
	for _, js := range st.Jobs() {
		if js.Info.Status.Finished() {
			var result any
			if len(js.Result) > 0 {
				result = js.Result
			}
			svc.Restore(js.Info, result)
			restored++
			continue
		}
		var req jobRequest
		var run jobs.Runner
		var err error
		if uerr := json.Unmarshal(js.Spec, &req); uerr != nil {
			err = fmt.Errorf("stored spec: %w", uerr)
		} else {
			run, err = srv.runnerFor(req)
		}
		if err != nil {
			// The acknowledgment stands even if the spec no longer
			// parses: surface a terminal failure, never a silent drop.
			info := js.Info
			info.Status = jobs.StatusFailed
			info.Error = "recovery: " + err.Error()
			info.Finished = time.Now()
			svc.Restore(info, nil)
			restored++
			continue
		}
		if rerr := svc.Resubmit(js.Info, run); rerr == nil {
			resumed++
		}
	}
	return restored, resumed
}

// cmdServe runs the supervised job service until the first
// SIGINT/SIGTERM, then drains: admission stops, in-flight jobs finish,
// and past -drain-timeout the remaining jobs are canceled. The exit is
// clean either way; a second signal hard-exits.
func cmdServe(ctx context.Context, args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 2, "worker-pool size")
	queue := fs.Int("queue", 16, "admission-queue bound; a full queue sheds submissions with 503")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline (0: none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "hard deadline for the shutdown drain")
	ckptDir := fs.String("checkpoint-dir", "", "directory for per-job resume journals")
	storeDir := fs.String("store-dir", "", "directory for the durable job store (WAL + snapshot); restarts recover acknowledged jobs")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant admission rate in jobs/s (0: unlimited); over-quota answers 429")
	tenantBurst := fs.Int("tenant-burst", 8, "per-tenant token-bucket burst")
	cacheDir := fs.String("cache-dir", "", "persistent content-addressed evaluation store: resubmitted jobs and repeated configs answer from it, across tenants and restarts")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "evaluation-store size bound in bytes (0: 64 MiB); oldest segments evicted first")
	fs.Parse(args)

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		defer st.Close()
		if rec := st.Recovery(); rec.SnapshotCorrupt || rec.WALErr != "" {
			fmt.Printf("patty serve: store repaired (snapshot corrupt: %v, wal: %q, %d byte(s) truncated)\n",
				rec.SnapshotCorrupt, rec.WALErr, rec.WALTruncated)
		}
	}
	opts := jobs.Options{
		Workers:     *workers,
		QueueDepth:  *queue,
		JobTimeout:  *jobTimeout,
		Collector:   metrics,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
	}
	if st != nil {
		opts.Journal = st
	}
	svc := jobs.New(opts)
	srv := newServer(svc, *ckptDir)
	// The evaluation store opens — and finishes its own torn-tail /
	// quarantine recovery — before job recovery replays the WAL, so a
	// resubmitted unfinished job can already answer from it.
	cache, closeCache, err := openEvalStore("serve", *cacheDir, *cacheMaxBytes)
	if err != nil {
		return err
	}
	defer closeCache()
	srv.cache = cache
	if st != nil {
		// Recovery completes before the listening banner, so a harness
		// that saw the banner can immediately read restored state.
		restored, resumed := recoverJobs(svc, srv, st)
		if restored+resumed > 0 {
			fmt.Printf("patty serve: recovered %d finished, resumed %d unfinished job(s)\n", restored, resumed)
		}
	}

	return serveUntilDone(ctx, "serve", *addr, srv.mux(), svc, *drainTimeout, "jobs")
}
