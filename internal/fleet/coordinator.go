package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/seed"
	"patty/internal/tuning"
)

// Options configures a distributed search.
type Options struct {
	// Workers are the base URLs of `patty worker` processes
	// ("http://host:port"). At least one is required.
	Workers []string
	// Spec is the opaque objective specification shipped with every
	// shard; the worker's NewObjective hook interprets it.
	Spec json.RawMessage
	// LocalObjective evaluates a configuration in-process. Required: the
	// byzantine audit measures with it, and so does a search step no
	// batch announced (a tuner other than the stock four).
	LocalObjective tuning.Objective
	// Checkpoint, when non-empty, journals the search's record of
	// measured costs to this path in the `patty tune -checkpoint`
	// format: a crashed coordinator resumes from it, and so does a plain
	// local search.
	Checkpoint string
	// Collector receives the fleet.* metrics (nil: discarded).
	Collector *obs.Collector

	// BreakerThreshold is the search's config-quarantine threshold
	// (default 3), matching the local runTune breaker.
	BreakerThreshold int
	// Observed, when set, wraps the search's reads of the merged record
	// (tuning.Observed.Wrap). It holds no state, so a rerun reuses it.
	Observed *tuning.Observed
	// ShardSize caps configurations per shard (default: a batch of n
	// configurations splits ⌈n/workers⌉ per shard, one per worker, and
	// never more than maxShardConfigs).
	ShardSize int
	// LeaseTTL bounds one shard dispatch: when it elapses the in-flight
	// HTTP request is canceled and the shard is re-dispatched
	// (default 30s).
	LeaseTTL time.Duration
	// StealAfter is the in-flight age past which an idle worker may
	// speculatively duplicate-dispatch a shard (default LeaseTTL/4).
	StealAfter time.Duration
	// WorkerFailLimit benches a worker permanently after this many
	// consecutive dispatch failures (default 3).
	WorkerFailLimit int
	// Client is the HTTP client for shard dispatch (default
	// http.DefaultClient). A netchaos.Injector Transport plugs in here.
	Client *http.Client

	// Cache, when on, addresses the workload in the persistent
	// content-addressed evaluation store: configurations a batch asks
	// for that are already cached are merged into the record before
	// sharding (they never hit the wire), every fresh merged evaluation
	// is journaled into it, and byzantine repairs correct it. Its
	// Program and Seed also travel with every shard.
	Cache tuning.Memo

	// CrossCheck is the byzantine audit width: per completed shard, this
	// many sampled configurations are re-evaluated locally and compared
	// against the worker's report (default 2; -1 disables auditing).
	CrossCheck int
	// CrossCheckSeed drives the audit's sample selection
	// (default seed.Default); the sample is a pure function of
	// (seed, search signature, shard id).
	CrossCheckSeed int64
	// CrossCheckTol is the relative tolerance separating float noise
	// from a lie (default 1e-9; the objective is pure, so honest
	// divergence is at most rounding).
	CrossCheckTol float64
	// RetryJitterSeed seeds the per-worker retry/backoff jitter
	// (default seed.Default). Jitter spreads synchronized retries; the
	// seed keeps tests deterministic.
	RetryJitterSeed int64
}

func (o Options) withDefaults() Options {
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = o.LeaseTTL / 4
	}
	if o.WorkerFailLimit <= 0 {
		o.WorkerFailLimit = 3
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.CrossCheck == 0 {
		o.CrossCheck = 2
	}
	if o.CrossCheckSeed == 0 {
		o.CrossCheckSeed = seed.Default
	}
	if o.CrossCheckTol <= 0 {
		o.CrossCheckTol = 1e-9
	}
	if o.RetryJitterSeed == 0 {
		o.RetryJitterSeed = seed.Default
	}
	return o
}

// Stats summarizes what the fleet did to produce a Result — the
// distributed layer's side channel, since the Result itself is
// indistinguishable from a local run's by design.
type Stats struct {
	Workers      int      // workers the search started with
	WorkersLost  int      // workers benched after repeated failures
	Shards       int      // shards the asked batches were split into
	Merged       int      // distinct evaluations merged into the record
	Duplicates   int      // worker evaluations discarded as duplicates
	Redispatched int      // lease expiries / failures re-queued
	Stolen       int      // speculative duplicate dispatches
	LocalEvals   int      // record misses (configs no batch asked for) evaluated locally
	Resumed      int      // evaluations replayed from the checkpoint
	CacheHits    int      // configs answered from the shared store before sharding
	Reruns       int      // searches discarded because a correction changed a cost they read
	Quarantined  []string // configs the search's breaker quarantined

	// Hostile-network ledger.
	NetFaults map[string]int // classified dispatch faults by FaultClass

	// Byzantine-defense ledger.
	CrossChecked         int            // audited (worker cost vs local truth) comparisons
	Divergent            int            // audited comparisons that disagreed
	Reverified           int            // prior contributions re-measured after a quarantine
	Corrected            int            // re-verified records whose cost was repaired
	ByzantineQuarantined []string       // workers quarantined for divergent costs
	Health               []WorkerHealth // per-worker scorecards, sorted by worker
}

// scheduler is the coordinator's shared shard state. All fields are
// guarded by mu; cond wakes workers blocked in next and the search
// blocked in ask.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	shards  []Shard          // every shard of every batch, indexed by id
	pending []int            // shard ids awaiting (re-)dispatch
	lease   map[int]*leaseIn // shard id -> in-flight state
	done    map[int]bool
	live    int  // dispatchers of the running search still running
	lost    bool // every dispatcher quit with a batch outstanding

	read      map[string]bool // record keys the running search has read
	stale     bool            // a correction changed one: rerun the search
	repairing int             // quarantines still re-verifying

	// ck is the search's one record of measured costs (merged, replayed,
	// measured locally or corrected), journaled when Options.Checkpoint
	// names a file.
	ck     *tuning.Checkpointer
	source map[string]string        // eval key -> worker that produced the merged record
	truth  map[string]*truthCell    // locally re-measured costs (single-flight audit cache)
	health map[string]*workerHealth // per-worker scorecards
	byz    *jobs.Breaker            // byzantine quarantine (keyed by worker URL)

	stats Stats
	inst  fleetInstruments
	coll  *obs.Collector // for the fleet.net.* / fleet.peer.* families

	// cache is the shared evaluation store: merged costs are journaled
	// into it (cache.Put) and byzantine repairs correct it. It is
	// immutable after setup and the store has its own lock, so it is
	// safe to use with or without mu held.
	cache tuning.Memo

	now func() time.Time
}

type leaseIn struct {
	holders int
	since   time.Time
}

type fleetInstruments struct {
	shardsDone   *obs.Counter
	redispatched *obs.Counter
	stolen       *obs.Counter
	merged       *obs.Counter
	duplicate    *obs.Counter
	local        *obs.Counter
	resumed      *obs.Counter
	lost         *obs.Counter
	rtt          *obs.Histogram

	crosschecked *obs.Counter
	divergent    *obs.Counter
	quarantined  *obs.Counter
	reverified   *obs.Counter
	corrected    *obs.Counter
}

func newInstruments(c *obs.Collector) fleetInstruments {
	return fleetInstruments{
		shardsDone:   c.Counter("fleet.shards.done"),
		redispatched: c.Counter("fleet.shards.redispatched"),
		stolen:       c.Counter("fleet.shards.stolen"),
		merged:       c.Counter("fleet.evals.merged"),
		duplicate:    c.Counter("fleet.evals.duplicate"),
		local:        c.Counter("fleet.evals.local"),
		resumed:      c.Counter("fleet.evals.resumed"),
		lost:         c.Counter("fleet.workers.lost"),
		rtt:          c.Histogram("fleet.shard.rtt_ns"),

		crosschecked: c.Counter("fleet.byzantine.crosschecked"),
		divergent:    c.Counter("fleet.byzantine.divergent"),
		quarantined:  c.Counter("fleet.byzantine.quarantined"),
		reverified:   c.Counter("fleet.byzantine.reverified"),
		corrected:    c.Counter("fleet.byzantine.corrected"),
	}
}

// next blocks until a shard is available for this worker and leases it.
// Pending shards are served first; with none pending it steals the
// oldest in-flight shard that has been out longer than stealAfter and
// has fewer than two holders. Returns ok=false once ctx is canceled
// (the search is over).
func (s *scheduler) next(ctx context.Context, stealAfter time.Duration) (Shard, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return Shard{}, false
		}
		if len(s.pending) > 0 {
			id := s.pending[0]
			s.pending = s.pending[1:]
			l := s.lease[id]
			if l == nil {
				l = &leaseIn{since: s.now()}
				s.lease[id] = l
			}
			l.holders++
			return s.shards[id], true
		}
		// Steal: oldest in-flight shard past the speculation age.
		best, bestAge := -1, stealAfter
		for id, l := range s.lease {
			if s.done[id] || l.holders == 0 || l.holders >= 2 {
				continue
			}
			if age := s.now().Sub(l.since); age >= bestAge {
				best, bestAge = id, age
			}
		}
		if best >= 0 {
			s.lease[best].holders++
			s.stats.Stolen++
			s.inst.stolen.Inc()
			return s.shards[best], true
		}
		// Nothing to do yet. If an in-flight shard will become
		// steal-eligible, wake up in time to take it.
		var wake *time.Timer
		wakeIn := time.Duration(-1)
		for id, l := range s.lease {
			if s.done[id] || l.holders == 0 || l.holders >= 2 {
				continue
			}
			d := max(stealAfter-s.now().Sub(l.since), time.Millisecond)
			if wakeIn < 0 || d < wakeIn {
				wakeIn = d
			}
		}
		if wakeIn >= 0 {
			wake = time.AfterFunc(wakeIn, s.cond.Broadcast)
		}
		s.cond.Wait()
		if wake != nil {
			wake.Stop()
		}
	}
}

// release returns a failed lease. When the last holder gives up and the
// shard is not done it is re-queued at the front; redispatch counts the
// re-queue only for genuine failures (counted=true), not 503 busy
// answers.
func (s *scheduler) release(id int, counted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lease[id]
	if l == nil {
		return
	}
	l.holders--
	if l.holders <= 0 && !s.done[id] {
		delete(s.lease, id)
		s.pending = append([]int{id}, s.pending...)
		if counted {
			s.stats.Redispatched++
			s.inst.redispatched.Inc()
		}
		s.cond.Broadcast()
	}
}

// complete merges one shard response. First completion wins; a late
// duplicate (steal loser, or a re-dispatched shard whose original
// eventually answered) contributes nothing and is counted as such.
// Evaluations are deduplicated by canonical assignment key across the
// whole search, and recorded in the checkpointer (one Flush per merged
// shard bounds the re-evaluation window after a coordinator crash).
func (s *scheduler) complete(id int, worker string, evals []tuning.EvalRecord, rtt time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inst.rtt.Record(int64(rtt))
	if l := s.lease[id]; l != nil {
		l.holders--
	}
	h := s.healthOf(worker)
	fresh := 0
	for _, rec := range evals {
		key := tuning.AssignKey(rec.Assignment)
		if _, ok := s.ck.Lookup(key); ok {
			s.stats.Duplicates++
			s.inst.duplicate.Inc()
			continue
		}
		s.ck.Record(rec.Assignment, rec.EffectiveCost())
		s.source[key] = worker // provenance: re-verified if the worker turns byzantine
		s.stats.Merged++
		s.inst.merged.Inc()
		h.evals++
		h.inst.evals.Inc()
		fresh++
		s.cache.Put(rec)
	}
	if !s.done[id] {
		s.done[id] = true
		delete(s.lease, id)
		s.inst.shardsDone.Inc()
		if fresh > 0 {
			s.ck.Flush() // best effort; the final Flush reports errors
		}
	}
	s.cond.Broadcast()
}

// busyError is a worker's refusal (503 shed or 429 throttle): honor
// the advertised Retry-After, don't bench.
type busyError struct {
	after    time.Duration
	throttle bool // true: 429 quota refusal; false: 503 shed
}

func (e busyError) Error() string { return fmt.Sprintf("worker busy, retry after %s", e.after) }

// dispatch sends one shard to one worker and decodes the answer. The
// request context carries the lease TTL: a hung worker is abandoned
// when it expires and the shard is re-queued by the caller. Failures
// come back classified (WireError / busyError) so the caller's retry
// policy and the fleet.net.* ledger can tell fault classes apart, and
// the response is validated to actually answer the shard that was
// asked: evaluation count and per-index assignment keys must match the
// request, anything else is ClassMismatch.
func dispatch(ctx context.Context, client *http.Client, worker string, req ShardRequest, ttl time.Duration) (*ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	lctx, cancel := context.WithTimeout(ctx, ttl)
	defer cancel()
	hreq, err := http.NewRequestWithContext(lctx, http.MethodPost, worker+"/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, &WireError{Worker: worker, Class: classifyTransport(err), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, busyError{after: after, throttle: resp.StatusCode == http.StatusTooManyRequests}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, &WireError{Worker: worker, Class: ClassOther,
			Err: fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	var sr ShardResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&sr); err != nil {
		return nil, &WireError{Worker: worker, Class: classifyDecode(err),
			Err: fmt.Errorf("bad shard response: %w", err)}
	}
	if len(sr.Evals) != len(req.Configs) {
		return nil, &WireError{Worker: worker, Class: ClassMismatch,
			Err: fmt.Errorf("shard %d: %d evals for %d configs", req.Shard, len(sr.Evals), len(req.Configs))}
	}
	for i, rec := range sr.Evals {
		if tuning.AssignKey(rec.Assignment) != tuning.AssignKey(req.Configs[i]) {
			return nil, &WireError{Worker: worker, Class: ClassMismatch,
				Err: fmt.Errorf("shard %d eval %d answers %q, asked %q", req.Shard, i,
					tuning.AssignKey(rec.Assignment), tuning.AssignKey(req.Configs[i]))}
		}
	}
	return &sr, nil
}

// Shard is one leasable unit of a batch.
type Shard struct {
	ID      int
	Configs []map[string]int
}

// ask is the search's tuning.Ask hook. It merges the configurations
// of batch the record lacks and the breaker has not quarantined, from
// the evaluation store where it can and by sharding the rest
// ⌈n/workers⌉ per shard (capped by capSize and maxShardConfigs), and
// returns once all are merged and no quarantine is still repairing the
// record, the search is canceled, or every worker is lost. It reports
// whether the running search may go on.
func (s *scheduler) ask(ctx context.Context, batch []map[string]int, br *jobs.Breaker, workers, capSize int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stale {
		return false
	}
	var todo []map[string]int
	for _, a := range batch {
		key := tuning.AssignKey(a)
		if _, ok := s.ck.Lookup(key); ok || br.State(key) != jobs.Closed {
			continue
		}
		if rec, ok := s.cache.Get(a); ok {
			s.ck.Record(a, rec.EffectiveCost())
			s.stats.CacheHits++
			s.stats.Merged++
			s.inst.merged.Inc()
			continue
		}
		todo = append(todo, tuning.CopyAssign(a)) // the search owns batch's maps
	}
	s.ck.Flush() // the store's hits, if any; the final Flush reports errors
	size := min((len(todo)+workers-1)/workers, maxShardConfigs)
	if capSize > 0 {
		size = min(size, capSize)
	}
	first := len(s.shards)
	for len(todo) > 0 {
		n := min(size, len(todo))
		s.pending = append(s.pending, len(s.shards))
		s.shards = append(s.shards, Shard{ID: len(s.shards), Configs: todo[:n]})
		todo = todo[n:]
	}
	s.stats.Shards = len(s.shards)
	s.coll.Gauge("fleet.shards.total").Set(int64(len(s.shards)))
	s.cond.Broadcast()
	// A quarantine still re-verifying may yet correct a cost this run
	// read: wait for it, so the run stops here rather than going on.
	for id := first; ctx.Err() == nil; {
		switch {
		case id < len(s.shards) && s.done[id]:
			id++
		case id < len(s.shards) && s.live == 0:
			s.lost = true
			return false
		case id == len(s.shards) && s.repairing == 0:
			return !s.stale
		default:
			s.cond.Wait()
		}
	}
	return false
}

// Tune runs the distributed search: it runs tn against the merged cost
// record, and every batch tn announces (see tuning.Ask) is measured on
// the workers before tn reads it. The returned Result is identical to
// an uninterrupted local tn.TuneCtx run with the same inputs (see the
// package comment for the argument); Stats reports what the fleet did
// along the way.
func Tune(ctx context.Context, tn tuning.Tuner, dims []tuning.Dim, start map[string]int, budget int, opts Options) (tuning.Result, *Stats, error) {
	if len(opts.Workers) == 0 {
		return tuning.Result{}, nil, errors.New("fleet: no workers")
	}
	if opts.LocalObjective == nil {
		return tuning.Result{}, nil, errors.New("fleet: LocalObjective is required")
	}
	opts = opts.withDefaults()

	// Resume: the record replays the merged prefix and the quarantine
	// set from the journal; a batch then ships only what it lacks.
	meta := tuning.SearchMeta{Algo: tn.Name(), Budget: budget, Dims: dims, Start: start}
	ck, resumed, err := tuning.NewCheckpointer(opts.Checkpoint, meta)
	if err != nil {
		return tuning.Result{}, nil, err
	}
	sched := &scheduler{
		lease:  make(map[int]*leaseIn),
		done:   make(map[int]bool),
		ck:     ck,
		source: make(map[string]string),
		truth:  make(map[string]*truthCell),
		health: make(map[string]*workerHealth),
		// One divergence is enough: a worker caught lying about a pure
		// function stays out for the rest of the search.
		byz:   jobs.NewBreaker(1, time.Hour),
		inst:  newInstruments(opts.Collector),
		coll:  opts.Collector,
		cache: opts.Cache,
		now:   time.Now,
	}
	sched.stats.NetFaults = make(map[string]int)
	sched.stats.Resumed = resumed
	sched.inst.resumed.Add(int64(resumed))
	sched.cond = sync.NewCond(&sched.mu)
	sched.stats.Workers = len(opts.Workers)
	opts.Collector.Gauge("fleet.workers").Set(int64(len(opts.Workers)))

	// Dispatch loop: one goroutine per worker not benched or quarantined,
	// serving the shards of whatever batch the search is waiting on,
	// until ctx ends. It returns the function that joins them all.
	dispatchers := func(ctx context.Context) (join func()) {
		watch := make(chan struct{})
		go func() { // wake cond waiters on cancellation
			defer close(watch)
			<-ctx.Done()
			sched.mu.Lock()
			sched.cond.Broadcast()
			sched.mu.Unlock()
		}()
		var wg sync.WaitGroup
		sched.mu.Lock()
		defer sched.mu.Unlock()
		sched.live = 0
		for widx, worker := range opts.Workers {
			if sched.healthOf(worker).benched {
				continue // lost in an earlier run of the search
			}
			sched.live++
			wg.Add(1)
			go func(widx int, worker string) {
				defer wg.Done()
				defer func() {
					sched.mu.Lock()
					sched.live--
					sched.cond.Broadcast()
					sched.mu.Unlock()
				}()
				// Per-worker jitter stream: deterministic under the seed,
				// different per worker so synchronized refusals de-correlate.
				rng := rand.New(rand.NewSource(seed.Mix(opts.RetryJitterSeed, int64(widx))))
				consecFail := 0
				backoff := 50 * time.Millisecond
				for {
					if !sched.byz.Allow(worker) {
						return // quarantined: out for the rest of the search
					}
					shard, ok := sched.next(ctx, opts.StealAfter)
					if !ok {
						return
					}
					id := shard.ID
					req := ShardRequest{
						Search:  meta.Signature(),
						Shard:   id,
						Spec:    opts.Spec,
						Program: opts.Cache.Program,
						Seed:    opts.Cache.Seed,
						Configs: shard.Configs,
					}
					sched.noteDispatch(worker)
					t0 := time.Now()
					joinAudit := sched.auditAhead(req, opts)
					resp, err := dispatch(ctx, opts.Client, worker, req, opts.LeaseTTL)
					rtt := time.Since(t0)
					joinAudit() // on every path: no audit outlives its dispatch
					var busy busyError
					switch {
					case err == nil:
						consecFail = 0
						backoff = 50 * time.Millisecond
						if sched.crossCheck(worker, req, resp, opts) {
							// The audit caught a lie: never merge this
							// response; quarantine the worker, repair its
							// past contributions, and hand the shard to an
							// honest worker — uncounted, since no lease
							// failed and the quarantine has its own count.
							sched.quarantine(worker, opts)
							sched.release(id, false)
							return
						}
						sched.complete(id, worker, resp.Evals, rtt)
					case errors.As(err, &busy):
						// Overloaded, not broken: hand the shard back and
						// honor the advertised backoff, jittered so a crowd
						// of refused dispatchers spreads out (capped).
						class := ClassBusy
						if busy.throttle {
							class = ClassThrottle
						}
						sched.noteFault(worker, class, false)
						sched.release(id, false)
						sleepCtx(ctx, min(jobs.Jitter(rng, busy.after), 2*time.Second))
					case ctx.Err() != nil:
						// The search is shutting down, not the worker
						// failing: hand the shard back uncounted.
						sched.release(id, false)
					default:
						sched.noteFault(worker, classOf(err), true)
						sched.release(id, true)
						consecFail++
						if consecFail >= opts.WorkerFailLimit {
							sched.noteBenched(worker)
							return
						}
						sleepCtx(ctx, jobs.Jitter(rng, backoff))
						backoff = min(backoff*2, time.Second)
					}
				}
			}(widx, worker)
		}
		return func() {
			wg.Wait()
			<-watch
		}
	}

	// The search reads the merged record, noting what it read. A
	// configuration no batch asked for (a tuner other than the stock
	// four) is measured locally, which purity keeps identical.
	recordObj := func(a map[string]int) float64 {
		key := tuning.AssignKey(a)
		sched.mu.Lock()
		defer sched.mu.Unlock()
		rec, ok := sched.ck.Lookup(key)
		if !ok {
			sched.mu.Unlock() // the objective may be slow
			rec = tuning.NewRecord(a, opts.LocalObjective(a))
			sched.mu.Lock()
			sched.stats.LocalEvals++
			sched.inst.local.Inc()
			sched.ck.Record(a, rec.EffectiveCost())
			sched.cache.Put(rec)
		}
		sched.read[key] = true
		return rec.EffectiveCost()
	}
	guarded := recordObj
	if opts.Observed != nil {
		guarded = opts.Observed.Wrap(guarded)
	}

	// Run the search. Each run ends by stopping its dispatchers, which
	// waits out every audit and quarantine in flight, so a correction of
	// a cost the run read is never missed. Such a run is discarded, and
	// the tuner reruns from start over the corrected record with a fresh
	// breaker; each quarantined worker causes one rerun at most.
	var res tuning.Result
	var br *jobs.Breaker
	var lost bool
	for {
		sched.read = make(map[string]bool)
		sched.stale = false
		br = jobs.NewBreaker(opts.BreakerThreshold, 30*time.Second).Instrument(opts.Collector)
		br.Restore(ck.Quarantined())
		rctx, stop := context.WithCancel(ctx)
		join := dispatchers(rctx)
		ask := func(batch []map[string]int) {
			if !sched.ask(rctx, batch, br, len(opts.Workers), opts.ShardSize) {
				stop() // the run is lost or discarded: end it at once
			}
		}
		res = tn.TuneCtx(tuning.WithAsk(rctx, ask), dims, start, jobs.GuardObjective(br, nil, guarded), budget)
		// The search is over: abandon straggling duplicates of merged
		// shards and wait for every dispatcher (and its audit) to stop.
		stop()
		join()
		sched.mu.Lock()
		lost = ctx.Err() == nil && sched.lost
		rerun := sched.stale && !lost && ctx.Err() == nil
		if rerun {
			sched.stats.Reruns++
		}
		// Shards of a discarded run that were never merged: a rerun asks
		// again for what it needs.
		sched.pending = nil
		clear(sched.lease)
		sched.mu.Unlock()
		if !rerun {
			break
		}
	}
	sched.stats.Health = sched.healthRows(opts.Workers)

	if lost {
		// Every worker was benched or quarantined with a batch
		// outstanding. The merged prefix is journaled; a re-run (fleet
		// or local) resumes it.
		ck.Flush()
		st := sched.stats
		return tuning.Result{}, &st, fmt.Errorf("fleet: all %d workers lost (%d benched, %d quarantined) with %d of %d shards unmerged",
			len(opts.Workers), st.WorkersLost, len(st.ByzantineQuarantined), len(sched.shards)-len(sched.done), len(sched.shards))
	}

	sched.stats.Quarantined = br.Quarantined()
	ck.Quarantine = br.Quarantined
	if err := ck.Flush(); err != nil {
		st := sched.stats
		return res, &st, fmt.Errorf("fleet: checkpoint not durable: %w", err)
	}
	st := sched.stats
	return res, &st, nil
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
