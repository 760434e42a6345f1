package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"patty/internal/obs"
	"patty/internal/ptest"
)

// leakCheck is the shared goroutine-leak assertion (ptest.NoLeaks).
func leakCheck(t *testing.T) func() { return ptest.NoLeaks(t) }

func waitDone(t *testing.T, s *Service, id string) Info {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return info
}

func TestSubmitRunResult(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 2})
	defer s.Close()
	id, err := s.Submit("tune", func(ctx context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s, id)
	if info.Status != StatusDone {
		t.Fatalf("status = %s, err = %s", info.Status, info.Error)
	}
	res, _, err := s.Result(id)
	if err != nil || res != 42 {
		t.Fatalf("result = %v, %v", res, err)
	}
	if _, _, err := s.Result("j999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown id: %v", err)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	defer leakCheck(t)()
	c := obs.New()
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueDepth: 2, Collector: c})
	defer func() { close(release); s.Close() }()

	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	// One running + two queued fills the service.
	var ids []string
	id, err := s.Submit("blocker", block)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	// Wait until the worker picked it up so the queue is truly empty.
	for {
		info, _ := s.Status(id)
		if info.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		id, err := s.Submit("filler", block)
		if err != nil {
			t.Fatalf("filler %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Submit("overflow", block); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue: got %v, want ErrOverloaded", err)
	}
	snap := c.Snapshot()
	if snap.Counters["jobs.shed"] != 1 || snap.Counters["jobs.submitted"] != 3 {
		t.Fatalf("shed=%d submitted=%d", snap.Counters["jobs.shed"], snap.Counters["jobs.submitted"])
	}
	if snap.Gauges["jobs.queue.cap"] != 2 {
		t.Fatalf("queue.cap gauge = %d", snap.Gauges["jobs.queue.cap"])
	}
	// A shed submission leaves no trace in the job table.
	if got := len(s.Jobs()); got != 3 {
		t.Fatalf("job table has %d entries, want 3", got)
	}
}

func TestSupervisorRestartsCrashedWorker(t *testing.T) {
	defer leakCheck(t)()
	c := obs.New()
	s := New(Options{Workers: 1, QueueDepth: 8, Collector: c,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond})
	defer s.Close()

	boom, err := s.Submit("crasher", func(ctx context.Context) (any, error) {
		panic("runner exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s, boom)
	if info.Status != StatusFailed || !strings.Contains(info.Error, "runner exploded") {
		t.Fatalf("crashed job: %+v", info)
	}
	// The supervisor must bring the worker back: later jobs still run.
	ok, err := s.Submit("survivor", func(ctx context.Context) (any, error) {
		return "alive", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, ok); info.Status != StatusDone {
		t.Fatalf("post-crash job: %+v", info)
	}
	if got := c.Snapshot().Counters["jobs.worker.restarts"]; got < 1 {
		t.Fatalf("restart counter = %d, want >= 1", got)
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer s.Close()
	id, err := s.Submit("sleeper", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, id); info.Status != StatusCanceled {
		t.Fatalf("timed-out job: %+v", info)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	defer leakCheck(t)()
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Close()

	running, err := s.Submit("running", func(ctx context.Context) (any, error) {
		close(release)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-release // the worker is now occupied
	queued, err := s.Submit("queued", func(ctx context.Context) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, queued); info.Status != StatusCanceled {
		t.Fatalf("queued cancel: %+v", info)
	}
	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	if info := waitDone(t, s, running); info.Status != StatusCanceled {
		t.Fatalf("running cancel: %+v", info)
	}
	// Canceling a finished job is a no-op.
	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Result(running); err != nil {
		t.Fatalf("canceled job result lookup: %v", err)
	}
}

func TestDrainGraceful(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 2, QueueDepth: 8})
	var ran int64
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		if _, err := s.Submit("work", func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			ran++
			mu.Unlock()
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 5 {
		t.Fatalf("graceful drain must finish queued jobs: ran %d of 5", ran)
	}
	if !s.Draining() {
		t.Fatal("drained service must report Draining")
	}
	if _, err := s.Submit("late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
}

func TestDrainHardDeadline(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	id, err := s.Submit("stuck", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // honors cancellation but never finishes on its own
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard-deadline drain: %v", err)
	}
	if info, _ := s.Status(id); info.Status != StatusCanceled {
		t.Fatalf("in-flight job after hard drain: %+v", info)
	}
}

// TestStormSubmitCancelDrain is the ISSUE's supervisor property test:
// concurrent submitters (a mix of quick, blocking, and panicking
// runners), concurrent cancelers, and a drain racing them — under
// -race, with zero leaked goroutines and every admitted job reaching a
// terminal state.
func TestStormSubmitCancelDrain(t *testing.T) {
	defer leakCheck(t)()
	c := obs.New()
	s := New(Options{
		Workers: 4, QueueDepth: 8, Collector: c,
		JobTimeout:  200 * time.Millisecond,
		BackoffBase: time.Microsecond, BackoffMax: time.Millisecond,
	})

	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				var run Runner
				switch rng.Intn(3) {
				case 0:
					run = func(ctx context.Context) (any, error) { return i, nil }
				case 1:
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					run = func(ctx context.Context) (any, error) {
						select {
						case <-ctx.Done():
							return nil, ctx.Err()
						case <-time.After(delay):
							return i, nil
						}
					}
				default:
					run = func(ctx context.Context) (any, error) { panic("storm crash") }
				}
				id, err := s.Submit(fmt.Sprintf("storm-%d", g), run)
				switch {
				case err == nil:
					mu.Lock()
					ids = append(ids, id)
					mu.Unlock()
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
					// load-shedding and shutdown are expected under storm
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	// Cancelers race the submitters.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 100; i++ {
				mu.Lock()
				var id string
				if len(ids) > 0 {
					id = ids[rng.Intn(len(ids))]
				}
				mu.Unlock()
				if id != "" {
					if err := s.Cancel(id); err != nil {
						t.Errorf("cancel %s: %v", id, err)
						return
					}
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("storm drain: %v", err)
	}

	// Every admitted job must be terminal, and the ledger must balance.
	for _, info := range s.Jobs() {
		if !info.Status.Finished() {
			t.Fatalf("job %s stuck in %s after drain", info.ID, info.Status)
		}
	}
	snap := c.Snapshot()
	total := snap.Counters["jobs.done"] + snap.Counters["jobs.failed"] + snap.Counters["jobs.canceled"]
	if total != snap.Counters["jobs.submitted"] {
		t.Fatalf("ledger: done+failed+canceled = %d, submitted = %d", total, snap.Counters["jobs.submitted"])
	}
	if snap.Gauges["jobs.running"] != 0 {
		t.Fatalf("running gauge = %d after drain", snap.Gauges["jobs.running"])
	}
}

// TestCancelQueuedNeverRuns races Cancel against dispatch: every job is
// canceled right after admission, while idle workers are picking it up.
// A job reported "canceled while queued" must never have invoked its
// runner, and a job a worker started first must still leave the running
// gauge balanced once the service drains.
func TestCancelQueuedNeverRuns(t *testing.T) {
	defer leakCheck(t)()
	for round := 0; round < 30; round++ {
		c := obs.New()
		s := New(Options{Workers: 4, QueueDepth: 800, Collector: c})
		var mu sync.Mutex
		ran := map[string]bool{}
		var ids []string
		for i := 0; i < 800; i++ {
			var id string
			mu.Lock()
			id, err := s.Submit("probe", func(ctx context.Context) (any, error) {
				mu.Lock()
				ran[id] = true
				mu.Unlock()
				return nil, nil
			})
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			if err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		for _, id := range ids {
			info, _ := s.Status(id)
			if info.Error == "canceled while queued" && ran[id] {
				t.Fatalf("round %d: job %s reported %q but its runner ran", round, id, info.Error)
			}
		}
		if g := c.Snapshot().Gauges["jobs.running"]; g != 0 {
			t.Fatalf("round %d: running gauge = %d after drain", round, g)
		}
	}
}

// TestCloseIdempotent: Close after Drain, and double Close, are no-ops.
func TestCloseIdempotent(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
}
