package jobs

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"patty/internal/obs"
)

// TestTenantFairShareDequeue floods the queue from a hog tenant and a
// modest tenant, then releases a single worker: dispatch order must
// interleave 1:1 at equal weights no matter how lopsided the backlog.
func TestTenantFairShareDequeue(t *testing.T) {
	defer leakCheck(t)()
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	s := New(Options{Workers: 1, QueueDepth: 64})
	defer s.Close()

	// Occupy the lone worker so everything below queues up.
	gate, err := s.Submit("gate", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if info, _ := s.Status(gate); info.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	record := func(tenant string) Runner {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	var last string
	for i := 0; i < 10; i++ {
		if last, err = s.SubmitJob(Submission{Tenant: "hog", Kind: "w", Run: record("hog")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if last, err = s.SubmitJob(Submission{Tenant: "modest", Kind: "w", Run: record("modest")}); err != nil {
			t.Fatal(err)
		}
	}
	_ = last
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 13 {
		t.Fatalf("ran %d jobs, want 13: %v", len(order), order)
	}
	// While both tenants are backlogged the dispatcher must alternate;
	// the first 6 dispatches therefore contain 3 of each.
	hogs := 0
	for _, tn := range order[:6] {
		if tn == "hog" {
			hogs++
		}
	}
	if hogs != 3 {
		t.Fatalf("first 6 dispatches: %d hog, want 3 (order %v)", hogs, order)
	}
}

// TestTenantWeights gives the heavy tenant weight 2: while both are
// backlogged it must be served twice per one dispatch of the light one.
func TestTenantWeights(t *testing.T) {
	defer leakCheck(t)()
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	s := New(Options{Workers: 1, QueueDepth: 64,
		TenantWeights: map[string]int{"heavy": 2}})
	defer s.Close()

	gate, _ := s.Submit("gate", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	for {
		if info, _ := s.Status(gate); info.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	record := func(tenant string) Runner {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := s.SubmitJob(Submission{Tenant: "heavy", Kind: "w", Run: record("heavy")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := s.SubmitJob(Submission{Tenant: "light", Kind: "w", Run: record("light")}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	heavy := 0
	for _, tn := range order[:6] {
		if tn == "heavy" {
			heavy++
		}
	}
	if heavy != 4 {
		t.Fatalf("first 6 dispatches: %d heavy, want 4 at weight 2 (order %v)", heavy, order)
	}
}

// TestTenantQuota429DistinctFromShed: an over-rate tenant gets
// *QuotaError with a Retry-After while other tenants still get in, and
// the quota refusal is distinguishable from queue overload.
func TestTenantQuota429DistinctFromShed(t *testing.T) {
	defer leakCheck(t)()
	c := obs.New()
	release := make(chan struct{})
	s := New(Options{Workers: 1, QueueDepth: 64, Collector: c,
		TenantRate: 0.001, TenantBurst: 2})
	defer func() { close(release); s.Close() }()

	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// Burst of 2 admits exactly 2, then the bucket is dry for ~1000s.
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitJob(Submission{Tenant: "greedy", Kind: "w", Run: block}); err != nil {
			t.Fatalf("burst %d: %v", i, err)
		}
	}
	_, err := s.SubmitJob(Submission{Tenant: "greedy", Kind: "w", Run: block})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "greedy" || qe.RetryAfter <= 0 {
		t.Fatalf("quota error detail: %+v", qe)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("quota refusal must not look like overload")
	}
	// A different tenant is unaffected by greedy's empty bucket.
	if _, err := s.SubmitJob(Submission{Tenant: "polite", Kind: "w", Run: block}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	snap := c.Snapshot()
	if snap.Counters["jobs.quota_denied"] != 1 {
		t.Fatalf("jobs.quota_denied = %d, want 1", snap.Counters["jobs.quota_denied"])
	}
	if got := snap.CounterFamilies["jobs.tenant.quota"]["greedy"]; got != 1 {
		t.Fatalf("tenant quota counter = %d", got)
	}
	if submitted := snap.CounterFamilies["jobs.tenant.submitted"]; submitted["greedy"] != 2 ||
		submitted["polite"] != 1 {
		t.Fatalf("tenant submitted counters: %v", submitted)
	}
	// Quota refusals burn no queue slot and leave no job-table trace.
	if got := len(s.Jobs()); got != 3 {
		t.Fatalf("job table has %d entries, want 3", got)
	}
}

// TestTenantIdsKeptAsGiven: a library caller skips serve's intake
// check, so any id reaches the service; ids that differ only in a
// character outside [A-Za-z0-9._-] still get a row each, with their
// own counts.
func TestTenantIdsKeptAsGiven(t *testing.T) {
	defer leakCheck(t)()
	c := obs.New()
	s := New(Options{Workers: 1, QueueDepth: 8, Collector: c})
	defer s.Close()
	quick := func(ctx context.Context) (any, error) { return nil, nil }
	for tenant, n := range map[string]int{"a/b": 1, "a_b": 2} {
		for i := 0; i < n; i++ {
			if _, err := s.SubmitJob(Submission{Tenant: tenant, Kind: "w", Run: quick}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cf := c.Snapshot().CounterFamilies
	want := map[string]int64{"a/b": 1, "a_b": 2}
	for _, name := range []string{"jobs.tenant.submitted", "jobs.tenant.done"} {
		if !reflect.DeepEqual(cf[name], want) {
			t.Fatalf("%s = %v, want %v", name, cf[name], want)
		}
	}
}

// TestQuotaRefill: tokens come back at the configured rate.
func TestQuotaRefill(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1, QueueDepth: 8, TenantRate: 50, TenantBurst: 1})
	defer s.Close()
	quick := func(ctx context.Context) (any, error) { return nil, nil }
	if _, err := s.SubmitJob(Submission{Tenant: "t", Kind: "w", Run: quick}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(Submission{Tenant: "t", Kind: "w", Run: quick}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("drained bucket: %v", err)
	}
	// 50 tokens/s refills one within 20ms; allow generous slack.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := s.SubmitJob(Submission{Tenant: "t", Kind: "w", Run: quick}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsOrderIsAcceptedSeq: Jobs() lists in stable admission order.
func TestJobsOrderIsAcceptedSeq(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1, QueueDepth: 16})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := s.Submit("w", func(ctx context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	list := s.Jobs()
	if len(list) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(list), len(ids))
	}
	for i, info := range list {
		if info.ID != ids[i] {
			t.Fatalf("position %d: %s, want %s (submission order)", i, info.ID, ids[i])
		}
		if i > 0 && list[i].Seq <= list[i-1].Seq {
			t.Fatalf("seq not strictly increasing: %+v", list)
		}
	}
}

// TestJitterDeterministicSeed: the jitter band is [0.75d, 1.25d) and a
// fixed seed reproduces the exact sequence everywhere it is used.
func TestJitterDeterministicSeed(t *testing.T) {
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	d := 8 * time.Second
	for i := 0; i < 1000; i++ {
		ja := Jitter(a, d)
		if jb := Jitter(b, d); ja != jb {
			t.Fatalf("iteration %d: same seed diverged: %v vs %v", i, ja, jb)
		}
		if ja < 6*time.Second || ja >= 10*time.Second {
			t.Fatalf("iteration %d: %v outside ±25%% of %v", i, ja, d)
		}
	}
	if got := Jitter(a, 0); got != 0 {
		t.Fatalf("Jitter(0) = %v", got)
	}

	// Seeded breakers advertise a reproducible Retry-After sequence.
	seq := func() []int {
		br := NewBreaker(1, 8*time.Second)
		br.SeedJitter(42)
		var out []int
		for i := 0; i < 5; i++ {
			out = append(out, ShedRetryAfter(br))
		}
		return out
	}
	s1, s2 := seq(), seq()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("seeded ShedRetryAfter diverged: %v vs %v", s1, s2)
		}
		if s1[i] < 1 {
			t.Fatalf("Retry-After below floor: %v", s1)
		}
	}
	// The jittered advice must actually vary across the sequence (the
	// breaker cooldown doubles, and the multiplier moves within ±25%).
	allEqual := true
	for i := 1; i < len(s1); i++ {
		if s1[i] != s1[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("jittered Retry-After sequence is constant: %v", s1)
	}

	// Seeded quota advice is deterministic too (fixed clock pins the
	// bucket's refill math; the seed pins the jitter).
	qseq := func() time.Duration {
		s := New(Options{Workers: 1, QueueDepth: 4, TenantRate: 0.001, TenantBurst: 1})
		defer s.Close()
		s.SeedJitter(99)
		epoch := time.Unix(1700000000, 0)
		s.mu.Lock()
		s.now = func() time.Time { return epoch }
		s.mu.Unlock()
		quick := func(ctx context.Context) (any, error) { return nil, nil }
		if _, err := s.SubmitJob(Submission{Tenant: "t", Kind: "w", Run: quick}); err != nil {
			t.Fatal(err)
		}
		_, err := s.SubmitJob(Submission{Tenant: "t", Kind: "w", Run: quick})
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("want QuotaError, got %v", err)
		}
		return qe.RetryAfter
	}
	if q1, q2 := qseq(), qseq(); q1 != q2 {
		t.Fatalf("seeded quota Retry-After diverged: %v vs %v", q1, q2)
	}
}

// journalRecorder is an in-memory Journal capturing the call stream.
type journalRecorder struct {
	mu        sync.Mutex
	accepted  []Info
	started   []string
	finalized []Info
	failNext  error
}

func newJournalRecorder() *journalRecorder {
	return &journalRecorder{}
}

func (r *journalRecorder) JobAccepted(info Info, spec []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failNext != nil {
		err := r.failNext
		r.failNext = nil
		return err
	}
	r.accepted = append(r.accepted, info)
	return nil
}

func (r *journalRecorder) JobStarted(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started = append(r.started, id)
	return nil
}

func (r *journalRecorder) JobFinalized(info Info, result any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finalized = append(r.finalized, info)
	return nil
}

// TestJournalLifecycle: the journal sees accepted -> started ->
// finalized for a normal job, and a failed accept refuses the
// submission entirely.
func TestJournalLifecycle(t *testing.T) {
	defer leakCheck(t)()
	rec := newJournalRecorder()
	s := New(Options{Workers: 1, QueueDepth: 8, Journal: rec})
	defer s.Close()

	id, err := s.SubmitJob(Submission{
		Tenant: "acme",
		Kind:   "tune",
		Spec:   []byte(`{"algo":"tabu"}`),
		Run:    func(ctx context.Context) (any, error) { return "best", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s, id)
	if info.Status != StatusDone {
		t.Fatalf("job: %+v", info)
	}
	rec.mu.Lock()
	if len(rec.accepted) != 1 || rec.accepted[0].ID != id || rec.accepted[0].Tenant != "acme" {
		rec.mu.Unlock()
		t.Fatalf("accepted stream: %+v", rec.accepted)
	}
	if len(rec.started) != 1 || rec.started[0] != id {
		rec.mu.Unlock()
		t.Fatalf("started stream: %v", rec.started)
	}
	if len(rec.finalized) != 1 || rec.finalized[0].Status != StatusDone {
		rec.mu.Unlock()
		t.Fatalf("finalized stream: %+v", rec.finalized)
	}
	rec.failNext = errors.New("disk gone")
	rec.mu.Unlock()
	if _, err := s.SubmitJob(Submission{Kind: "w", Run: func(ctx context.Context) (any, error) { return nil, nil }}); err == nil {
		t.Fatal("journal accept failure must refuse the submission")
	}
}

// TestRestoreAndResubmit: recovery surfaces — a Restored job is
// terminal with its result visible and never re-runs; Resubmit re-runs
// under the original identity exactly once; duplicate ids refuse.
func TestRestoreAndResubmit(t *testing.T) {
	defer leakCheck(t)()
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer s.Close()

	s.Restore(Info{ID: "j7", Kind: "tune", Status: StatusDone, Tenant: "acme", Seq: 7}, "recovered-best")
	res, info, err := s.Result("j7")
	if err != nil || res != "recovered-best" || info.Status != StatusDone {
		t.Fatalf("restored job: %v %+v %v", res, info, err)
	}

	ran := make(chan struct{})
	err = s.Resubmit(Info{ID: "j5", Kind: "tune", Tenant: "acme", Seq: 5},
		func(ctx context.Context) (any, error) { close(ran); return "resumed", nil })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("resubmitted job never ran")
	}
	if info := waitDone(t, s, "j5"); info.Status != StatusDone {
		t.Fatalf("resubmitted job: %+v", info)
	}
	if err := s.Resubmit(Info{ID: "j5", Seq: 5}, func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate resubmit: %v", err)
	}

	// New ids keep rising past the recovered ceiling.
	id, err := s.Submit("w", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id)
	if st.Seq <= 7 {
		t.Fatalf("new seq %d must exceed recovered ceiling 7", st.Seq)
	}
}
