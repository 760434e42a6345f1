package parrt

import (
	"context"
	"runtime/debug"
	"sync/atomic"
	"time"

	"patty/internal/obs"
)

// PolicyKind selects how a pattern reacts to an item-level fault
// (a panicking stage/work function or a per-item timeout).
type PolicyKind int

const (
	// FailFast (the default) aborts the whole run on the first item
	// fault: the run's context is canceled with the *ItemError as
	// cause, every goroutine drains and exits, and the partial results
	// produced so far are returned. The legacy non-context entry
	// points re-panic the captured fault to preserve their historical
	// crash semantics.
	FailFast PolicyKind = iota
	// SkipItem drops the faulted item, records its *ItemError and
	// keeps processing every other item; the run completes with
	// partial results plus the error report.
	SkipItem
	// RetryItem re-executes the faulted item up to Retries extra
	// times with exponential backoff and jitter; if every attempt
	// fails the item is skipped and reported like SkipItem.
	RetryItem
)

// PolicyNames lists the enum choices of the faultpolicy parameter,
// indexed by PolicyKind.
var PolicyNames = []string{"failfast", "skipitem", "retry"}

// String returns the lower-case policy name used in tuning files.
func (k PolicyKind) String() string {
	if int(k) >= 0 && int(k) < len(PolicyNames) {
		return PolicyNames[k]
	}
	return "unknown"
}

// FaultPolicy configures the fault layer of one pattern instance.
// Like every other runtime knob it lives in the Params registry, keyed
// under the pattern's prefix:
//
//	<kind>.<name>.faultpolicy      0 failfast | 1 skipitem | 2 retry
//	<kind>.<name>.retries          extra attempts under retry (default 2)
//	<kind>.<name>.retrybackoffus   base backoff between attempts, µs (default 100)
//	<kind>.<name>.itemtimeoutms    per-item wall-clock budget, ms (0: off)
//	<kind>.<name>.stalltimeoutms   stall-watchdog no-progress interval, ms (0: off)
//
// The keys are read (not registered) at the start of every run, so a
// tuning file or Params.Set call takes effect on the next Process.
// Unlike performance parameters these change observable behaviour
// under faults, which is why they are kept out of the auto-tuner's
// dimension list.
type FaultPolicy struct {
	Kind PolicyKind
	// Retries is the number of extra attempts under RetryItem.
	Retries int
	// Backoff is the base delay before attempt n+1; the actual delay
	// doubles per attempt and carries up to 50% deterministic jitter.
	Backoff time.Duration
	// ItemTimeout bounds one item execution (0: unbounded). A timed
	// out item's goroutine is abandoned: it still occupies memory
	// until the stage function returns, but the stream moves on.
	ItemTimeout time.Duration
	// StallTimeout arms the stall watchdog: when no item makes
	// progress for this long while the run is still active, the run
	// is aborted with a *StallError naming the blocked stage.
	StallTimeout time.Duration
}

// Fault-policy parameter key suffixes.
const (
	keyFaultPolicy  = "faultpolicy"
	keyRetries      = "retries"
	keyRetryBackoff = "retrybackoffus"
	keyItemTimeout  = "itemtimeoutms"
	keyStallTimeout = "stalltimeoutms"
)

// policyFromParams resolves the fault policy for one pattern prefix
// ("pipeline.video"). Unknown keys yield the defaults: fail-fast, two
// retries at 100µs base backoff, no timeouts.
func policyFromParams(ps *Params, prefix string) FaultPolicy {
	kind := ps.Get(prefix+"."+keyFaultPolicy, int(FailFast))
	if kind < 0 || kind >= len(PolicyNames) {
		kind = int(FailFast)
	}
	return FaultPolicy{
		Kind:         PolicyKind(kind),
		Retries:      ps.Get(prefix+"."+keyRetries, 2),
		Backoff:      time.Duration(ps.Get(prefix+"."+keyRetryBackoff, 100)) * time.Microsecond,
		ItemTimeout:  time.Duration(ps.Get(prefix+"."+keyItemTimeout, 0)) * time.Millisecond,
		StallTimeout: time.Duration(ps.Get(prefix+"."+keyStallTimeout, 0)) * time.Millisecond,
	}
}

// faultRun is the shared per-run state of the fault layer: the policy,
// the cancelable context, the error report and the progress counter
// the stall watchdog reads.
type faultRun struct {
	pattern  string
	pol      FaultPolicy
	parent   context.Context
	ctx      context.Context
	cancel   context.CancelCauseFunc
	report   *Report
	progress atomic.Int64
	fc       obs.Faults // all nil when the pattern is uninstrumented
}

// newFaultRun derives the run context (cancelable with cause) and the
// empty report. The returned finish func must be called once the run
// has drained; it releases the context.
func newFaultRun(ctx context.Context, pattern string, pol FaultPolicy, fc obs.Faults) (*faultRun, func()) {
	runCtx, cancel := context.WithCancelCause(ctx)
	fr := &faultRun{
		pattern: pattern,
		pol:     pol,
		parent:  ctx,
		ctx:     runCtx,
		cancel:  cancel,
		report:  &Report{},
		fc:      fc,
	}
	return fr, func() { cancel(nil) }
}

// canceled reports whether the run has been aborted (internally or by
// the caller's context). Pure check: causes are recorded by fail, the
// watchdog, and finalizeCause — never here, so the run's own release
// cancel can't masquerade as an abort.
func (fr *faultRun) canceled() bool {
	select {
	case <-fr.ctx.Done():
		return true
	default:
		return false
	}
}

// finalizeCause records an external cancellation in the report once
// the run has drained: if no internal abort happened but the caller's
// context is dead, its cancel cause becomes the run error.
func (fr *faultRun) finalizeCause() {
	if fr.report.Err() == nil && fr.parent.Err() != nil {
		fr.report.abort(context.Cause(fr.parent))
	}
}

// fail records a terminal item error and applies the policy: under
// FailFast it cancels the run with the error as cause.
func (fr *faultRun) fail(e *ItemError) {
	fr.fc.Errors.Inc()
	fr.report.record(e)
	if fr.pol.Kind == FailFast {
		fr.report.abort(e)
		fr.cancel(e)
	}
}

// item executes fn for one element under the policy, converting panics
// and timeouts into item errors. It reports true when fn completed
// normally (possibly after retries) and false when the item failed or
// the run was canceled mid-retry.
func (fr *faultRun) item(site string, item int, fn func()) bool {
	attempts := 1
	if fr.pol.Kind == RetryItem && fr.pol.Retries > 0 {
		attempts += fr.pol.Retries
	}
	var last *ItemError
	for a := 1; a <= attempts; a++ {
		rec, stack, timedOut, ok := safeCall(fr.pol.ItemTimeout, fn)
		if ok {
			fr.progress.Add(1)
			return true
		}
		if timedOut {
			fr.fc.Timeouts.Inc()
		}
		last = &ItemError{
			Pattern:   fr.pattern,
			Site:      site,
			Item:      item,
			Attempts:  a,
			Recovered: rec,
			Stack:     stack,
		}
		if a == attempts {
			break
		}
		fr.fc.Retries.Inc()
		if !fr.backoff(a, item) {
			// Canceled while waiting: report the attempts made so far.
			break
		}
	}
	fr.fail(last)
	fr.progress.Add(1) // a failed item is still progress for the watchdog
	return false
}

// backoff sleeps before the next retry attempt: base * 2^(attempt-1)
// plus up to 50% jitter, derived deterministically from the item index
// so repeated runs back off identically. Returns false when the run is
// canceled while waiting.
func (fr *faultRun) backoff(attempt, item int) bool {
	d := fr.pol.Backoff << (attempt - 1)
	if d <= 0 {
		return !fr.canceled()
	}
	// splitmix64-style scramble of (item, attempt) for the jitter.
	z := uint64(item)*0x9E3779B97F4A7C15 + uint64(attempt)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	d += time.Duration(z % uint64(d/2+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-fr.ctx.Done():
		return false
	}
}

// safeCall runs fn, converting a panic into (rec, stack, false, false)
// and a timeout expiry into (errItemTimeout, nil, true, false). With a
// zero timeout fn runs on the calling goroutine; with a timeout it
// runs on a helper goroutine that is abandoned on expiry — the only
// way to bound opaque user code in Go — so a truly stuck function
// leaks its goroutine until it returns (the stall watchdog exists for
// exactly that case).
func safeCall(timeout time.Duration, fn func()) (rec any, stack []byte, timedOut, ok bool) {
	if timeout <= 0 {
		ok = func() (completed bool) {
			defer func() {
				if r := recover(); r != nil {
					rec, stack = r, stackOf()
				}
			}()
			fn()
			return true
		}()
		return rec, stack, false, ok
	}
	type outcome struct {
		rec   any
		stack []byte
		ok    bool
	}
	ch := make(chan outcome, 1)
	go func() {
		o := outcome{}
		defer func() { ch <- o }()
		defer func() {
			if r := recover(); r != nil {
				o.rec, o.stack = r, stackOf()
			}
		}()
		fn()
		o.ok = true
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.rec, o.stack, false, o.ok
	case <-t.C:
		return errItemTimeout{limit: timeout}, nil, true, false
	}
}

// stackOf captures the current goroutine's stack (small helper so the
// recover paths above stay readable).
func stackOf() []byte { return debug.Stack() }
