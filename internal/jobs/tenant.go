package jobs

import (
	"errors"
	"fmt"
	"time"

	"patty/internal/obs"
)

// DefaultTenant is the tenant id of submissions that carry none: the
// pre-tenancy single-caller world maps onto one shared tenant.
const DefaultTenant = "default"

// ErrQuotaExceeded is the sentinel of per-tenant admission refusals.
// Callers match it with errors.Is; the concrete *QuotaError carries the
// tenant and a Retry-After hint. Distinct from ErrOverloaded: quota is
// "this tenant is over its rate" (HTTP 429), overload is "the shared
// queue is full" (HTTP 503).
var ErrQuotaExceeded = errors.New("jobs: tenant over quota")

// QuotaError reports a submission refused by a tenant's token bucket.
type QuotaError struct {
	// Tenant is the over-quota tenant id.
	Tenant string
	// RetryAfter estimates when the bucket next has a token (jittered
	// ±25% so synchronized clients do not retry in lockstep).
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("jobs: tenant %q over quota, retry in %s", e.Tenant, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap makes errors.Is(err, ErrQuotaExceeded) work.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// tokenBucket is a classic token bucket: tokens refill continuously at
// rate per second up to burst; each admission consumes one. rate <= 0
// means unlimited. All methods are called under Service.mu.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// refill credits the elapsed time since the last observation.
func (b *tokenBucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// available refills and reports whether a token is ready; when not, it
// returns how long until one is.
func (b *tokenBucket) available(now time.Time) (time.Duration, bool) {
	if b.rate <= 0 {
		return 0, true
	}
	b.refill(now)
	if b.tokens >= 1 {
		return 0, true
	}
	need := (1 - b.tokens) / b.rate
	return time.Duration(need * float64(time.Second)), false
}

// take consumes one token; call only after available reported true.
func (b *tokenBucket) take() {
	if b.rate <= 0 {
		return
	}
	b.tokens--
	if b.tokens < 0 {
		b.tokens = 0
	}
}

// tenantState is the per-tenant slice of the admission layer: a FIFO of
// queued jobs, the weighted-fair-queueing virtual time, the quota
// bucket and the per-tenant instruments. All fields are guarded by
// Service.mu.
type tenantState struct {
	id     string
	weight float64
	fifo   []*job
	// vtime is the tenant's virtual finish time: each dispatched job
	// advances it by 1/weight, and the dispatcher always serves the
	// smallest vtime among backlogged tenants. One flooding tenant
	// therefore accumulates vtime quickly and cannot starve the rest.
	vtime  float64
	bucket tokenBucket

	mSubmitted *obs.Counter
	mDone      *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	mShed      *obs.Counter
	mQuota     *obs.Counter
	mQueued    *obs.Gauge
	mLatency   *obs.Histogram
}

// tenantLocked returns (creating on first sight) the tenant record.
// Callers hold s.mu.
func (s *Service) tenantLocked(id string) *tenantState {
	if id == "" {
		id = DefaultTenant
	}
	tn, ok := s.tenants[id]
	if ok {
		return tn
	}
	weight := 1.0
	if w, ok := s.opts.TenantWeights[id]; ok && w > 0 {
		weight = float64(w)
	}
	burst := float64(s.opts.TenantBurst)
	if burst < 1 {
		burst = 8
	}
	tn = &tenantState{
		id:     id,
		weight: weight,
		// A tenant first seen now starts at the current virtual time:
		// it competes fairly from here on, it does not get credit for
		// the past it was absent for.
		vtime:  s.vnow,
		bucket: tokenBucket{rate: s.opts.TenantRate, burst: burst, tokens: burst},
	}
	c := s.opts.Collector
	tn.mSubmitted = c.CounterOf("jobs.tenant.submitted", id)
	tn.mDone = c.CounterOf("jobs.tenant.done", id)
	tn.mFailed = c.CounterOf("jobs.tenant.failed", id)
	tn.mCanceled = c.CounterOf("jobs.tenant.canceled", id)
	tn.mShed = c.CounterOf("jobs.tenant.shed", id)
	tn.mQuota = c.CounterOf("jobs.tenant.quota", id)
	tn.mQueued = c.GaugeOf("jobs.tenant.queued", id)
	tn.mLatency = c.HistogramOf("jobs.tenant.latency_ns", id)
	s.tenants[id] = tn
	return tn
}

// enqueueLocked appends a job to its tenant's FIFO and wakes one
// worker. Callers hold s.mu and have already registered the job id.
func (s *Service) enqueueLocked(tn *tenantState, j *job) {
	if len(tn.fifo) == 0 && tn.vtime < s.vnow {
		// Re-activating after idle: forfeit the unused share instead of
		// bursting ahead of everyone who kept working.
		tn.vtime = s.vnow
	}
	tn.fifo = append(tn.fifo, j)
	tn.mQueued.Add(1)
	s.jobs[j.info.ID] = j
	s.pending++
	s.queueDepth.Set(int64(s.pending))
	s.cond.Signal()
}

// dequeueLocked implements the weighted-fair-share pick: among tenants
// with queued jobs, serve the smallest virtual time (ties by tenant id
// for determinism) and advance it by 1/weight. Callers hold s.mu and
// have checked s.pending > 0.
func (s *Service) dequeueLocked() *job {
	var best *tenantState
	for _, tn := range s.tenants {
		if len(tn.fifo) == 0 {
			continue
		}
		if best == nil || tn.vtime < best.vtime || (tn.vtime == best.vtime && tn.id < best.id) {
			best = tn
		}
	}
	j := best.fifo[0]
	best.fifo[0] = nil
	best.fifo = best.fifo[1:]
	best.mQueued.Add(-1)
	best.vtime += 1 / best.weight
	if best.vtime > s.vnow {
		s.vnow = best.vtime
	}
	s.pending--
	s.queueDepth.Set(int64(s.pending))
	return j
}
