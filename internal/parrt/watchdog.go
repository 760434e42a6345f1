package parrt

import (
	"context"
	"fmt"
	"time"
)

// StallError is the abort cause produced by the stall watchdog: the
// run made no progress for a full no-progress interval while work was
// still outstanding — a blocked stage function, a deadlocked worker,
// or an upstream that stopped feeding. The Diagnostic names the
// suspect so the failure is debuggable instead of a hung process.
type StallError struct {
	// Pattern is the pattern instance name.
	Pattern string
	// Interval is the configured no-progress interval.
	Interval time.Duration
	// Diagnostic is the human-readable progress dump captured when the
	// watchdog fired, naming the blocked stage/worker.
	Diagnostic string
}

// Error implements the error interface.
func (e *StallError) Error() string {
	return fmt.Sprintf("parrt: %s stalled: no progress for %v: %s",
		e.Pattern, e.Interval, e.Diagnostic)
}

// startWatchdog arms the stall detector for one run: it samples the
// progress counter four times per interval and aborts the run (via
// the faultRun's cancel cause) once a full interval elapses without
// any item completing. diagnose is called at fire time to capture the
// per-stage progress dump. The returned stop func disarms the
// watchdog and must be called when the run drains; the watchdog
// goroutine exits on stop, fire, or external cancellation.
func (fr *faultRun) startWatchdog(diagnose func() string) (stop func()) {
	interval := fr.pol.StallTimeout
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		tick := interval / 4
		if tick <= 0 {
			tick = interval
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last := fr.progress.Load()
		lastChange := time.Now()
		for {
			select {
			case <-quit:
				return
			case <-fr.ctx.Done():
				return
			case now := <-t.C:
				cur := fr.progress.Load()
				if cur != last {
					last, lastChange = cur, now
					continue
				}
				if now.Sub(lastChange) < interval {
					continue
				}
				e := &StallError{
					Pattern:    fr.pattern,
					Interval:   interval,
					Diagnostic: diagnose(),
				}
				fr.report.abort(e)
				fr.cancel(e)
				return
			}
		}
	}()
	return func() { close(quit) }
}

// join waits for a parallel body and reports true, arming the stall
// watchdog with diagnose when the policy sets a no-progress interval.
// When the watchdog fires it abandons the join and reports false (the
// stuck body's goroutines leak until it returns); on any other
// cancellation the body exits at its next item or chunk boundary and
// the join completes cooperatively.
func (fr *faultRun) join(wait func(), diagnose func() string) bool {
	if fr.pol.StallTimeout <= 0 {
		wait()
		return true
	}
	defer fr.startWatchdog(diagnose)()
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-fr.ctx.Done():
		if _, stalled := context.Cause(fr.ctx).(*StallError); stalled {
			return false
		}
		<-done
		return true
	}
}
