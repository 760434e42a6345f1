package jobs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"patty/internal/obs"
	"patty/internal/tuning"
)

// BreakerState is the classic three-state circuit-breaker lifecycle.
type BreakerState int

const (
	// Closed: the key is healthy; calls flow.
	Closed BreakerState = iota
	// Open: the key faulted Threshold times in a row; calls are
	// short-circuited until the cooldown elapses.
	Open
	// HalfOpen: cooldown elapsed; exactly one probe call is let
	// through. Success closes the breaker, a fault reopens it with a
	// doubled cooldown.
	HalfOpen
)

// String returns the lower-case state name.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a keyed circuit breaker. The jobs layer uses it to
// quarantine tuning configurations whose evaluations repeatedly fault
// (tuning.IsFault): after Threshold consecutive faults on one key, the
// key trips Open and every further call is refused without burning a
// measurement, until a cooldown probe proves the key healed. The
// quarantine set round-trips through tuner checkpoints
// (tuning.Checkpointer.Quarantine / Breaker.Restore), so a restarted
// job does not re-probe configurations a previous run already
// condemned.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerEntry
	jit     *rand.Rand // Retry-After jitter; guarded by mu

	trips         *obs.Counter
	shortCircuits *obs.Counter
	openGauge     *obs.Gauge
}

type breakerEntry struct {
	state     BreakerState
	consec    int
	openUntil time.Time
	cooldown  time.Duration
	probing   bool
}

// NewBreaker returns a breaker that trips a key after threshold
// consecutive faults (min 1) and re-probes it after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[string]*breakerEntry),
	}
}

// Instrument attaches breaker metrics to a collector:
// jobs.breaker.trips, jobs.breaker.shortcircuits, jobs.breaker.open.
// Returns the breaker for chaining.
func (b *Breaker) Instrument(c *obs.Collector) *Breaker {
	b.trips = c.Counter("jobs.breaker.trips")
	b.shortCircuits = c.Counter("jobs.breaker.shortcircuits")
	b.openGauge = c.Gauge("jobs.breaker.open")
	return b
}

// Allow reports whether a call for key may proceed. An Open key whose
// cooldown elapsed transitions to HalfOpen and admits exactly one
// probe; concurrent callers are refused until that probe resolves via
// Record.
func (b *Breaker) Allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.state == Closed {
		return true
	}
	if e.state == Open && b.now().After(e.openUntil) {
		e.state = HalfOpen
		e.probing = false
	}
	if e.state == HalfOpen && !e.probing {
		e.probing = true
		return true
	}
	b.shortCircuits.Inc()
	return false
}

// Record reports the outcome of an allowed call for key. A fault
// increments the consecutive-fault count and trips the breaker at the
// threshold (or immediately when the call was a half-open probe, with
// a doubled cooldown, capped at 16x); success closes the breaker and
// resets the count.
func (b *Breaker) Record(key string, faulted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		e = &breakerEntry{cooldown: b.cooldown}
		b.entries[key] = e
	}
	wasProbe := e.state == HalfOpen
	e.probing = false
	if !faulted {
		if e.state != Closed {
			e.state = Closed
		}
		e.consec = 0
		e.cooldown = b.cooldown
		b.updateOpenGauge()
		return
	}
	e.consec++
	if wasProbe || e.consec >= b.threshold {
		if wasProbe {
			e.cooldown = time.Duration(math.Min(float64(e.cooldown)*2, float64(16*b.cooldown)))
		}
		if e.state != Open {
			b.trips.Inc()
		}
		e.state = Open
		e.openUntil = b.now().Add(e.cooldown)
	}
	b.updateOpenGauge()
}

// updateOpenGauge refreshes the open-entry count; callers hold b.mu.
func (b *Breaker) updateOpenGauge() {
	if b.openGauge == nil {
		return
	}
	var n int64
	for _, e := range b.entries {
		if e.state != Closed {
			n++
		}
	}
	b.openGauge.Set(n)
}

// RetryAfter returns the remaining Open-state cooldown for key, or 0
// when the key is not Open (or its cooldown already elapsed). HTTP
// intakes use it to answer 503 with an honest Retry-After instead of a
// constant.
func (b *Breaker) RetryAfter(key string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.state != Open {
		return 0
	}
	if d := e.openUntil.Sub(b.now()); d > 0 {
		return d
	}
	return 0
}

// IntakeKey is the breaker key HTTP intakes use for admission events.
const IntakeKey = "intake"

// ShedRetryAfter drives an intake breaker through one shed admission
// and returns the advisory Retry-After in whole seconds: the breaker's
// remaining cooldown, jittered ±25% (see Jitter) and floored at one
// second. Repeated shed storms trip the breaker and double the cooldown
// through its half-open probes, so the advertised backoff grows while
// the overload persists; the first accepted submission
// (Record(IntakeKey, false)) resets it.
func ShedRetryAfter(b *Breaker) int {
	b.Allow(IntakeKey) // advance Open -> HalfOpen when the cooldown elapsed
	b.Record(IntakeKey, true)
	secs := int(math.Ceil(b.jitter(b.RetryAfter(IntakeKey)).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// State returns the current state of key (Closed for unknown keys).
func (b *Breaker) State(key string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.entries[key]; e != nil {
		if e.state == Open && b.now().After(e.openUntil) {
			return HalfOpen
		}
		return e.state
	}
	return Closed
}

// Quarantined returns the sorted keys currently not Closed — the set
// persisted into tuner checkpoints.
func (b *Breaker) Quarantined() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for k, e := range b.entries {
		if e.state != Closed {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Restore re-opens the given keys (checkpointed quarantine from a
// previous run), each with a fresh cooldown starting now.
func (b *Breaker) Restore(keys []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range keys {
		b.entries[k] = &breakerEntry{
			state:     Open,
			consec:    b.threshold,
			cooldown:  b.cooldown,
			openUntil: b.now().Add(b.cooldown),
		}
	}
	b.updateOpenGauge()
}

// GuardObjective interposes the breaker between a tuner and its
// objective. A quarantined configuration returns +Inf without running;
// a configuration whose cost is a fault (tuning.IsFault: infinite or
// NaN) is retried immediately up to the breaker's threshold (transient
// faults heal and keep their measured cost — see internal/faultinject),
// and one that faults every attempt trips the breaker and is
// quarantined. The Observed argument has no effect: the cost alone
// decides.
func GuardObjective(b *Breaker, _ *tuning.Observed, obj tuning.Objective) tuning.Objective {
	return func(a map[string]int) float64 {
		key := tuning.AssignKey(a)
		if !b.Allow(key) {
			return math.Inf(1)
		}
		for {
			cost := obj(a)
			faulted := tuning.IsFault(cost)
			b.Record(key, faulted)
			if !faulted {
				return cost
			}
			if !b.Allow(key) {
				return math.Inf(1)
			}
		}
	}
}
