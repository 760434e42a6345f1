// Package jobs is the supervision layer that turns patty's one-shot
// detect/tune/fuzz entry points into a service: a bounded admission
// queue with load shedding, per-tenant token-bucket quotas and a
// weighted fair-share dispatcher (tenant.go), a fixed worker pool whose
// crashed workers a supervisor restarts with exponential backoff,
// per-job deadlines and cancellation, a circuit breaker (breaker.go)
// that quarantines tuning configurations whose runs repeatedly fault,
// and an optional durable Journal (internal/store) that makes every
// acknowledged job survive a crash. `patty serve` exposes this over
// HTTP; every queue/latency/restart signal is published through
// internal/obs.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"patty/internal/obs"
)

var (
	// ErrOverloaded is the admission-control verdict: the queue is
	// full, the submission was shed. Callers retry later (HTTP 503).
	ErrOverloaded = errors.New("jobs: queue full, submission shed")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("jobs: service draining, not accepting work")
	// ErrUnknownJob reports an id the service has never issued.
	ErrUnknownJob = errors.New("jobs: unknown job id")
	// ErrNotFinished reports a result request for a still-running job.
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrDuplicateJob reports a Resubmit of an id the service already
	// tracks — recovery must never double-run one acknowledgment.
	ErrDuplicateJob = errors.New("jobs: duplicate job id")
)

// Status is a job's lifecycle phase.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is executing the job.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; the result is available.
	StatusDone Status = "done"
	// StatusFailed: the runner returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusCanceled: canceled before or during execution, or timed
	// out against its deadline.
	StatusCanceled Status = "canceled"
)

// Finished reports whether the status is terminal.
func (s Status) Finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Runner executes one job. It must honor ctx: cancellation and the
// per-job deadline arrive through it. The returned value becomes the
// job result.
type Runner func(ctx context.Context) (any, error)

// Info is the externally visible state of a job.
type Info struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status Status `json:"status"`
	// Tenant is the submitting tenant (DefaultTenant when anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Seq is the admission sequence number: the stable total order of
	// acknowledged submissions, preserved across restarts by the
	// Journal. GET /jobs sorts by it.
	Seq       int64     `json:"seq,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// Journal is the durability hook of the service: when non-nil, the
// service writes one record per lifecycle edge and never acknowledges
// a submission whose accepted record did not persist. internal/store
// implements it with a write-ahead log + snapshot. Methods are called
// outside the service mutex; JobAccepted's error fails the submission,
// the others are advisory (counted in jobs.journal.errors).
type Journal interface {
	// JobAccepted persists an admitted job before the caller gets its
	// id. spec is the opaque submission body a restarted service
	// rebuilds the Runner from.
	JobAccepted(info Info, spec []byte) error
	// JobCheckpoint records the resume-journal path of a job, so a
	// restarted service re-attaches the job to its tuning.Checkpointer
	// snapshot instead of starting the search over.
	JobCheckpoint(id, path string) error
	// JobStarted records dispatch (diagnostic; recovery re-runs
	// accepted-but-unfinalized jobs either way).
	JobStarted(id string) error
	// JobFinalized persists the terminal state and result. It is
	// called before the result becomes observable, which is what makes
	// results exactly-once across a crash.
	JobFinalized(info Info, result any) error
}

// Submission is one admission request. The zero value of the optional
// fields matches the legacy Submit(kind, run) behavior.
type Submission struct {
	// Tenant attributes the job for quota and fair-share purposes
	// (empty: DefaultTenant).
	Tenant string
	// Kind is the workload label (tune | fuzz | study | bench ...).
	Kind string
	// Spec is the opaque request body journaled for crash recovery.
	Spec []byte
	// Checkpoint is the job's resume-journal path, journaled as a
	// checkpoint-ref record.
	Checkpoint string
	// Run executes the job.
	Run Runner
}

// job is the internal record.
type job struct {
	mu     sync.Mutex
	info   Info
	run    Runner
	result any
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Options configures a Service. The zero value is usable: 2 workers,
// queue depth 16, no per-job deadline, no quotas, metrics discarded.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the admission queue across all tenants
	// (default 16). A full queue sheds new submissions with
	// ErrOverloaded.
	QueueDepth int
	// JobTimeout, when positive, is the per-job deadline; an expired
	// job is canceled and reported StatusCanceled.
	JobTimeout time.Duration
	// Collector receives the service metrics (nil: discarded).
	Collector *obs.Collector
	// BackoffBase/BackoffMax shape the supervisor's exponential
	// restart backoff after a worker crash (defaults 10ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// TenantRate, when positive, is each tenant's admission token
	// refill rate in submissions per second; an empty bucket refuses
	// with *QuotaError (HTTP 429). 0 disables quotas.
	TenantRate float64
	// TenantBurst is the token-bucket capacity (default 8).
	TenantBurst int
	// TenantWeights sets per-tenant fair-share weights (default 1
	// each): a weight-2 tenant is served twice as often as a weight-1
	// tenant while both are backlogged.
	TenantWeights map[string]int
	// Journal, when non-nil, makes the service durable (see Journal).
	Journal Journal
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	return o
}

// Service is the supervised job runner.
type Service struct {
	opts Options
	stop chan struct{} // closed by Close/Drain deadline: stop restarts

	mu          sync.Mutex
	cond        *sync.Cond // signaled on enqueue, broadcast on drain
	jobs        map[string]*job
	tenants     map[string]*tenantState
	pending     int     // queued (not yet dispatched) jobs, all tenants
	vnow        float64 // fair-share virtual time high-water mark
	nextSeq     int64
	queueClosed bool // drain started: dispatch the backlog, admit nothing
	draining    bool
	closed      bool
	now         func() time.Time
	jit         *rand.Rand // Retry-After jitter; guarded by mu

	workers sync.WaitGroup

	queueDepth  *obs.Gauge
	running     *obs.Gauge
	submitted   *obs.Counter
	shed        *obs.Counter
	quotaCnt    *obs.Counter
	restored    *obs.Counter
	resubmitted *obs.Counter
	journalErr  *obs.Counter
	doneCnt     *obs.Counter
	failedCnt   *obs.Counter
	cancelCnt   *obs.Counter
	restarts    *obs.Counter
	latency     *obs.Histogram
	runTime     *obs.Histogram
}

// New starts a Service with opts.Workers supervised workers.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	c := opts.Collector
	s := &Service{
		opts:        opts,
		stop:        make(chan struct{}),
		jobs:        make(map[string]*job),
		tenants:     make(map[string]*tenantState),
		now:         time.Now,
		jit:         rand.New(rand.NewSource(time.Now().UnixNano())),
		queueDepth:  c.Gauge("jobs.queue.depth"),
		running:     c.Gauge("jobs.running"),
		submitted:   c.Counter("jobs.submitted"),
		shed:        c.Counter("jobs.shed"),
		quotaCnt:    c.Counter("jobs.quota_denied"),
		restored:    c.Counter("jobs.restored"),
		resubmitted: c.Counter("jobs.resubmitted"),
		journalErr:  c.Counter("jobs.journal.errors"),
		doneCnt:     c.Counter("jobs.done"),
		failedCnt:   c.Counter("jobs.failed"),
		cancelCnt:   c.Counter("jobs.canceled"),
		restarts:    c.Counter("jobs.worker.restarts"),
		latency:     c.Histogram("jobs.latency_ns"),
		runTime:     c.Histogram("jobs.run_ns"),
	}
	s.cond = sync.NewCond(&s.mu)
	c.Gauge("jobs.queue.cap").Set(int64(opts.QueueDepth))
	c.Gauge("jobs.workers").Set(int64(opts.Workers))
	for i := 0; i < opts.Workers; i++ {
		s.workers.Add(1)
		go s.supervise(i)
	}
	return s
}

// SeedJitter makes the Retry-After jitter deterministic (tests).
func (s *Service) SeedJitter(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jit = rand.New(rand.NewSource(seed))
}

// Submit admits an anonymous job under DefaultTenant. See SubmitJob.
func (s *Service) Submit(kind string, run Runner) (string, error) {
	return s.SubmitJob(Submission{Kind: kind, Run: run})
}

// SubmitJob admits a job, or refuses it. Admission is strictly
// non-blocking and checked in order: a tenant with an empty token
// bucket gets a *QuotaError (429 — the tenant is the problem), a full
// shared queue answers ErrOverloaded (503 — the service is the
// problem). When a Journal is configured, the accepted record persists
// before the id is returned, so every acknowledgment survives a crash.
func (s *Service) SubmitJob(sub Submission) (string, error) {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return "", ErrDraining
	}
	tn := s.tenantLocked(sub.Tenant)
	if wait, ok := tn.bucket.available(s.now()); !ok {
		wait = Jitter(s.jit, wait)
		s.mu.Unlock()
		tn.mQuota.Inc()
		s.quotaCnt.Inc()
		return "", &QuotaError{Tenant: tn.id, RetryAfter: wait}
	}
	if s.pending >= s.opts.QueueDepth {
		s.mu.Unlock()
		tn.mShed.Inc()
		s.shed.Inc()
		return "", ErrOverloaded
	}
	tn.bucket.take()
	s.nextSeq++
	j := &job{
		info: Info{
			ID:        fmt.Sprintf("j%d", s.nextSeq),
			Kind:      sub.Kind,
			Status:    StatusQueued,
			Tenant:    tn.id,
			Seq:       s.nextSeq,
			Submitted: s.now(),
		},
		run:  sub.Run,
		done: make(chan struct{}),
	}
	s.mu.Unlock()

	// Durability before acknowledgment: an accepted record that cannot
	// be journaled fails the submission instead of promising work a
	// crash would forget.
	if s.opts.Journal != nil {
		if err := s.opts.Journal.JobAccepted(j.info, sub.Spec); err != nil {
			s.journalErr.Inc()
			return "", fmt.Errorf("jobs: journal accept: %w", err)
		}
		if sub.Checkpoint != "" {
			if err := s.opts.Journal.JobCheckpoint(j.info.ID, sub.Checkpoint); err != nil {
				s.journalErr.Inc()
			}
		}
	}

	s.mu.Lock()
	if s.queueClosed {
		// Drain raced the journal write: the accepted record exists, so
		// finalize the job as canceled (journaled too) rather than
		// leaving a ghost acknowledgment for the next restart to re-run.
		s.mu.Unlock()
		s.finalizeUnstarted(j, tn, "canceled: service draining")
		return "", ErrDraining
	}
	s.enqueueLocked(tn, j)
	s.mu.Unlock()
	s.submitted.Inc()
	tn.mSubmitted.Inc()
	return j.info.ID, nil
}

// Restore installs a job recovered in a terminal state: its result is
// immediately observable and it will never run again (exactly-once).
func (s *Service) Restore(info Info, result any) {
	j := &job{info: info, result: result, done: make(chan struct{})}
	close(j.done)
	s.mu.Lock()
	s.jobs[info.ID] = j
	if info.Seq > s.nextSeq {
		s.nextSeq = info.Seq
	}
	s.mu.Unlock()
	s.restored.Inc()
}

// Resubmit re-enqueues a recovered, acknowledged-but-unfinished job
// under its original identity. It bypasses quota and queue-depth
// admission — the acknowledgment already happened, possibly in a
// previous process — and does not journal a second accepted record.
func (s *Service) Resubmit(info Info, run Runner) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return ErrDraining
	}
	if _, dup := s.jobs[info.ID]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateJob, info.ID)
	}
	info.Status = StatusQueued
	info.Started = time.Time{}
	info.Finished = time.Time{}
	info.Error = ""
	j := &job{info: info, run: run, done: make(chan struct{})}
	tn := s.tenantLocked(info.Tenant)
	s.enqueueLocked(tn, j)
	if info.Seq > s.nextSeq {
		s.nextSeq = info.Seq
	}
	s.resubmitted.Inc()
	return nil
}

// SetNextSeq raises the admission sequence floor so new ids never
// collide with recovered ones.
func (s *Service) SetNextSeq(seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.nextSeq {
		s.nextSeq = seq
	}
}

// supervise owns one worker slot: it runs the worker loop and, when
// the worker crashes (a panic escaping a job), restarts it after an
// exponential backoff that resets on every job completed cleanly.
func (s *Service) supervise(slot int) {
	defer s.workers.Done()
	backoff := s.opts.BackoffBase
	for {
		crashed := s.worker()
		if !crashed {
			return // backlog drained and queue closed: clean shutdown
		}
		s.restarts.Inc()
		select {
		case <-s.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > s.opts.BackoffMax {
			backoff = s.opts.BackoffMax
		}
	}
}

// worker dispatches fair-share-picked jobs until the queue closes and
// empties (returns false) or a job panic crashes it (returns true).
// The in-flight job is finalized as failed before the crash propagates
// to the supervisor, so a panicking runner costs its own job and a
// restart delay — never the service.
func (s *Service) worker() (crashed bool) {
	var current *job
	defer func() {
		if r := recover(); r != nil {
			if current != nil {
				s.finish(current, nil, fmt.Errorf("job panicked: %v\n%s", r, debug.Stack()))
			}
			crashed = true
		}
	}()
	for {
		j := s.next()
		if j == nil {
			return false
		}
		if !s.start(j) {
			continue // canceled while queued
		}
		current = j
		res, err := j.run(jobContext(j))
		s.finish(j, res, err)
		current = nil
	}
}

// next blocks until a job is dispatchable (weighted fair-share pick)
// or the closed queue has fully drained (nil).
func (s *Service) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.pending > 0 {
			return s.dequeueLocked()
		}
		if s.queueClosed {
			return nil
		}
		s.cond.Wait()
	}
}

// jobContext returns the context the runner was armed with.
func jobContext(j *job) context.Context {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctx
}

// start transitions a dequeued job to running and arms its context.
func (s *Service) start(j *job) bool {
	j.mu.Lock()
	if j.info.Status != StatusQueued { // canceled while waiting
		j.mu.Unlock()
		return false
	}
	if s.opts.JobTimeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), s.opts.JobTimeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	j.info.Status = StatusRunning
	j.info.Started = s.now()
	id := j.info.ID
	j.mu.Unlock()
	s.running.Add(1)
	if s.opts.Journal != nil {
		if err := s.opts.Journal.JobStarted(id); err != nil {
			s.journalErr.Inc()
		}
	}
	return true
}

// finish finalizes a job in any terminal state, journals the terminal
// record, and only then makes the result observable — the order that
// gives exactly-once results across a crash.
func (s *Service) finish(j *job, res any, err error) {
	j.mu.Lock()
	if j.info.Status.Finished() {
		j.mu.Unlock()
		return
	}
	now := s.now()
	j.info.Finished = now
	canceled := j.ctx != nil && j.ctx.Err() != nil
	switch {
	case err == nil:
		j.info.Status = StatusDone
		j.result = res
	case canceled || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.info.Status = StatusCanceled
		j.info.Error = err.Error()
	default:
		j.info.Status = StatusFailed
		j.info.Error = err.Error()
	}
	if j.cancel != nil {
		j.cancel()
	}
	info := j.info
	j.mu.Unlock()

	if s.opts.Journal != nil {
		var jres any
		if info.Status == StatusDone {
			jres = res
		}
		if jerr := s.opts.Journal.JobFinalized(info, jres); jerr != nil {
			s.journalErr.Inc()
		}
	}

	s.running.Add(-1)
	s.mu.Lock()
	tn := s.tenantLocked(info.Tenant)
	s.mu.Unlock()
	switch info.Status {
	case StatusDone:
		s.doneCnt.Inc()
		tn.mDone.Inc()
	case StatusCanceled:
		s.cancelCnt.Inc()
		tn.mCanceled.Inc()
	default:
		s.failedCnt.Inc()
		tn.mFailed.Inc()
	}
	s.latency.Record(info.Finished.Sub(info.Submitted).Nanoseconds())
	tn.mLatency.Record(info.Finished.Sub(info.Submitted).Nanoseconds())
	if !info.Started.IsZero() {
		s.runTime.Record(info.Finished.Sub(info.Started).Nanoseconds())
	}
	close(j.done)
}

// finalizeUnstarted finalizes a job that never reached the queue or
// was canceled while queued, journaling the terminal record. It
// reports false, and leaves the job alone, once a worker has started
// it or it has finished.
func (s *Service) finalizeUnstarted(j *job, tn *tenantState, reason string) bool {
	j.mu.Lock()
	if j.info.Status != StatusQueued {
		j.mu.Unlock()
		return false
	}
	j.info.Status = StatusCanceled
	j.info.Error = reason
	j.info.Finished = s.now()
	info := j.info
	j.mu.Unlock()
	if s.opts.Journal != nil {
		if err := s.opts.Journal.JobFinalized(info, nil); err != nil {
			s.journalErr.Inc()
		}
	}
	s.cancelCnt.Inc()
	tn.mCanceled.Inc()
	s.latency.Record(info.Finished.Sub(info.Submitted).Nanoseconds())
	tn.mLatency.Record(info.Finished.Sub(info.Submitted).Nanoseconds())
	close(j.done)
	return true
}

// lookup fetches a job by id.
func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Status returns a copy of the job's visible state.
func (s *Service) Status(id string) (Info, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info, nil
}

// Result returns a finished job's result value.
func (s *Service) Result(id string) (any, Info, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, Info{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.info.Status.Finished() {
		return nil, j.info, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, j.info.Status)
	}
	return j.result, j.info, nil
}

// Cancel stops a job: queued jobs are finalized immediately, running
// jobs get their context canceled (the runner decides how fast to
// stop). Canceling a finished job is a no-op.
func (s *Service) Cancel(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	status, tenant := j.info.Status, j.info.Tenant
	j.mu.Unlock()
	if status == StatusQueued {
		s.mu.Lock()
		tn := s.tenantLocked(tenant)
		s.mu.Unlock()
		if s.finalizeUnstarted(j, tn, "canceled while queued") {
			return nil
		}
		// A worker started the job after the status read: cancel the run.
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// Wait blocks until the job finishes or ctx is done.
func (s *Service) Wait(ctx context.Context, id string) (Info, error) {
	j, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return Info{}, ctx.Err()
	}
}

// Jobs lists a snapshot of every job's Info in accepted-seq order —
// the stable total admission order, preserved across restarts.
func (s *Service) Jobs() []Info {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	out := make([]Info, 0, len(js))
	for _, j := range js {
		j.mu.Lock()
		out = append(out, j.info)
		j.mu.Unlock()
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Seq != out[k].Seq {
			return out[i].Seq < out[k].Seq
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Drain performs graceful shutdown: admission stops (new submissions
// get ErrDraining), queued and in-flight jobs run to completion, and
// the worker pool exits. When ctx expires first — the hard deadline —
// every remaining job is canceled and Drain waits for the workers to
// observe the cancellation before returning ctx's error.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.queueClosed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		s.markClosed()
		return nil
	case <-ctx.Done():
		// Hard deadline: cancel everything still alive and stop
		// supervisor restarts, then wait for the workers.
		s.markClosed()
		for _, info := range s.Jobs() {
			if !info.Status.Finished() {
				s.Cancel(info.ID)
			}
		}
		<-finished
		return ctx.Err()
	}
}

// markClosed flips the terminal flag and stops supervisor restarts.
func (s *Service) markClosed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
}

// Close is Drain with an immediate hard deadline: cancel everything,
// wait for workers, return.
func (s *Service) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}
