//go:build linux

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"patty/internal/corpus"
	"patty/internal/seed"
)

// opTimeout bounds any single op or request, so a hung program fails
// the op instead of stalling the run.
const opTimeout = 60 * time.Second

// A run measures its set-up in two groups, one before the load and one
// after it; setup_s is the median of the setupRuns measured set-ups.
// Each group first discards setupWarmups set-ups: the first ten to
// twenty of a series take up to twice as long as the rest while the
// spawning process warms up, and a median over them moved by 30% from
// one series of runs to the next. The speed the warm set-ups settle at
// also changes from run to run, so the two groups, 20 s apart, sample
// it twice. A set-up takes a few milliseconds, so all of them together
// cost well under a second.
const (
	setupWarmups = 20
	setupRuns    = 21
)

// measureSetUp calls setUp setupWarmups+n times and records the
// durations of the last n calls.
func (e *env) measureSetUp(n int, setUp func() (time.Duration, error)) error {
	for i := 0; i < setupWarmups+n; i++ {
		d, err := setUp()
		if err != nil {
			return err
		}
		if i >= setupWarmups {
			e.res.SetupS = append(e.res.SetupS, d.Seconds())
		}
	}
	return nil
}

// env is the state one workload run shares across its ops.
type env struct {
	cfg config
	tr  *tracer // nil in the untraced run
	res *childResult

	// unitRSS makes loop record this process's VmHWM at the end of every
	// unit into unitPeaks and reset it for the next (in-process
	// workloads); rssErr holds the first failure to do so.
	unitRSS   bool
	unitPeaks []float64
	rssErr    error
}

// runWorkload runs cfg.workload in this process.
func runWorkload(cfg config) (*childResult, error) {
	e := &env{cfg: cfg, res: &childResult{Workload: cfg.workload}}
	if cfg.trace {
		e.tr = newTracer()
	}
	var err error
	switch cfg.workload {
	case "verify-corpus":
		err = e.inProcess(runVerify)
	case "fuzz-gate":
		err = e.inProcess(runFuzz)
	case "tune-fleet":
		err = runFleet(e)
	case "serve-mix":
		err = runServe(e)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if cfg.spans {
		e.res.Spans = e.tr.list()
	}
	return e.res, nil
}

// prepare builds an in-process workload's inputs and references: the
// set-up it pays before its first op. A fuzz-gate op generates its own
// program, so that workload prepares nothing.
func prepare(cfg config) error {
	if cfg.workload == "verify-corpus" {
		_, err := prepareVerify()
		return err
	}
	return nil
}

// inProcess runs a workload whose ops are calls into this process. Its
// set-up time is measured the way a user pays it: a fresh process of
// this binary, from spawn until its inputs are prepared. Its peak_rss_mb
// is the median over the run's units of the process's VmHWM within the
// unit. The high-water mark of the whole run is a maximum over when the
// garbage collector happened to run: over ten runs of verify-corpus it
// read 76-79 MB in seven and 85-87 MB in the other three.
func (e *env) inProcess(body func(*env) error) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	probe := func() (time.Duration, error) {
		cmd := exec.Command(self, append(e.cfg.childArgs(), "-setup-only")...)
		cmd.Stderr = os.Stderr
		d, _, exited, err := startReady(cmd, readyLine)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if err := <-exited; err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		return d, nil
	}
	if err := e.measureSetUp(setupRuns-setupRuns/2, probe); err != nil {
		return err
	}
	e.unitRSS = true
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if err := body(e); err != nil {
		return err
	}
	if e.rssErr != nil {
		return e.rssErr
	}
	if len(e.unitPeaks) > 0 {
		e.res.PeakRSSMB = median(e.unitPeaks)
	}
	return e.measureSetUp(setupRuns/2, probe)
}

// unitDone records the VmHWM of the unit that just ended and resets it
// for the next one.
func (e *env) unitDone() {
	if !e.unitRSS || e.rssErr != nil {
		return
	}
	mb, err := peakRSSMB(os.Getpid())
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		e.rssErr = err
		return
	}
	e.unitPeaks = append(e.unitPeaks, mb)
}

// resetPeakRSS sets this process's VmHWM back to its current resident
// set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// loop runs ops in units (a pass over the corpus, a block of fuzz
// seeds) until the run has lasted cfg.seconds, always finishing a
// started unit so every run has the same mix. An untraced run also
// does at least minOps ops, so its tail percentile is reportable. With
// cfg.ops set it runs exactly that many ops instead. It calls unitDone
// at the end of every unit, a last partial one included.
func (e *env) loop(unit int, op func(i int)) {
	least := minOps
	if e.cfg.trace {
		least = 0
	}
	start := time.Now()
	i := 0
	for ; ; i++ {
		if i > 0 && i%unit == 0 {
			e.unitDone()
		}
		if e.cfg.ops > 0 {
			if i >= e.cfg.ops {
				break
			}
		} else if i%unit == 0 && i >= least && time.Since(start).Seconds() >= e.cfg.seconds {
			break
		}
		e.res.Attempted++
		op(i)
	}
	e.res.WallS = time.Since(start).Seconds()
	if i%unit != 0 {
		e.unitDone()
	}
}

// opDone records a completed op's latency.
func (e *env) opDone(d time.Duration) {
	e.res.OpMs = append(e.res.OpMs, ms(d))
}

// peakRSSMB reads a process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %d", pid)
}

// inputHash fingerprints the first ops of the schedule a workload
// derives from seed, so an envelope shows which inputs it measured.
func inputHash(workload string, s int64) string {
	h := sha256.New()
	switch workload {
	case "verify-corpus":
		for k := 0; k < 100; k++ {
			fmt.Fprintln(h, passOrder(s, k, len(corpus.All())))
		}
	case "fuzz-gate":
		for i := 0; i < 10000; i++ {
			fmt.Fprintln(h, seed.Mix(s, int64(i)))
		}
	case "tune-fleet":
		for k := 0; k < 100; k++ {
			fmt.Fprintln(h, passOrder(s, k, len(tuneCores)))
		}
	case "serve-mix":
		for _, j := range servePlan(s, 4000) {
			fmt.Fprintf(h, "%s %s\n", j.Tenant, j.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
