//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"patty/internal/corpus"
	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/seed"
	"patty/internal/store"
	"patty/internal/tuning"
)

// serve-mix load shape.
const (
	// serveRate is the open-loop offer in jobs per second: about 40% of
	// the server's capacity on the reference host (~105 jobs/s on two
	// cores), so queueing stays out of the knee even when the host runs
	// a quarter slower.
	serveRate = 40
	// serveMinJobs keeps a time-bounded run long enough (25 s) to
	// report op_p99_ms, which needs ten samples beyond it; that tail is
	// the fuzz class's.
	serveMinJobs    = 1000
	serveIdentities = 12 // (corpus program, cores) pairs the cached class resubmits
	// serveWarmup keeps a resubmission at least one second behind its
	// identity's cold submission, so the cold twin has finished and the
	// resubmission is answered from the store.
	serveWarmup = serveRate
	// maxLagP99Ms is the validity limit of the load generator: a run
	// whose sends fell further behind schedule measured the client.
	maxLagP99Ms = 5.0
	// probeJobs bounds the store-append probe (four fsynced appends a job).
	probeJobs = 100
	// serveQueue holds every job of a run, so a stall of the host's
	// disk delays jobs instead of shedding them: at 40 jobs/s a
	// 64-deep queue overflows after a 1.6 s stall, and a shed job would
	// count as a failed op.
	serveQueue = "1024"
)

// serveJob is one planned submission.
type serveJob struct {
	Class  string // fuzz, cached or tune
	Tenant string
	Body   []byte
	Cores  int // tune classes: modelled cores, for the golden check
	// Twin is the plan index of the cached class's cold submission of
	// this identity (the job itself when it is that submission).
	Twin    int
	Sources map[string]string
}

// servePlan derives n submissions from the seed: 40% fuzz jobs (n=4,
// configs=2, unique seeds) that are never cached, 30% tune jobs that
// resubmit one of 12 comment-perturbed (corpus program, cores)
// identities, 30% fresh tune jobs (no sources, unique budget >= 200);
// tenants hog 50%, t1 and t2 25% each.
func servePlan(s int64, n int) []serveJob {
	r := rand.New(rand.NewSource(seed.Mix(s, 0x5e4e)))
	progs := corpus.All()
	perm := r.Perm(len(progs))
	var cold []int // plan index of each identity's cold submission
	usedSeeds := make(map[int64]bool)
	fresh := 0
	plan := make([]serveJob, n)
	for i := range plan {
		j := &plan[i]
		j.Tenant = [...]string{"hog", "hog", "t1", "t2"}[r.Intn(4)]
		x := r.Float64()
		switch {
		case x < 0.4:
			j.Class = "fuzz"
		case x < 0.7:
			j.Class = "cached"
		default:
			j.Class = "tune"
		}
		if j.Class == "cached" {
			var k int
			if len(cold) < serveIdentities {
				k = len(cold)
				cold = append(cold, i)
			} else {
				eligible := 0
				for _, c := range cold {
					if c <= i-serveWarmup {
						eligible++
					}
				}
				if eligible == 0 {
					j.Class = "tune"
				} else {
					k = r.Intn(eligible) // cold submissions are in plan order
				}
			}
			if j.Class == "cached" {
				p := progs[perm[k]]
				j.Cores = 2 + k%10
				j.Twin = cold[k]
				j.Sources = map[string]string{p.Name + ".go": p.Source + fmt.Sprintf("\n// resubmission %d by %s\n", i, j.Tenant)}
				j.Body = mustJSON(map[string]any{"kind": "tune", "algo": "linear",
					"budget": 100 + k, "cores": j.Cores, "sources": j.Sources})
				continue
			}
		}
		switch j.Class {
		case "fuzz":
			fs := r.Int63()
			for usedSeeds[fs] {
				fs = r.Int63()
			}
			usedSeeds[fs] = true
			j.Body = mustJSON(map[string]any{"kind": "fuzz", "seed": fs, "n": 4, "configs": 2})
		case "tune":
			j.Cores = 8 // the tune default
			j.Body = mustJSON(map[string]any{"kind": "tune", "algo": "linear", "budget": 200 + fresh})
			fresh++
		}
	}
	return plan
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps of strings and numbers always marshal
	}
	return b
}

// serveRec is what the client saw of one job.
type serveRec struct {
	due, sent, accepted time.Time
	code                int
	id                  string
	info                jobs.Info
	result              []byte // compacted result document
}

// startServer starts `patty serve` on fresh directories under dir.
func startServer(bin, dir string) (*pattyProc, time.Duration, error) {
	return startPatty(bin, "serve", "-workers", "2", "-queue", serveQueue,
		"-store-dir", filepath.Join(dir, "store"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"),
		"-cache-dir", filepath.Join(dir, "cache"))
}

// runServe is the serve-mix workload: an open loop at 40 jobs/s
// against `patty serve -workers 2 -queue 1024` with a durable store, a
// checkpoint directory and an evaluation cache. One goroutine sends on
// schedule, a second waits for each job; every job is timed from its
// due time to the server's finish stamp.
func runServe(e *env) error {
	golden, err := loadTuneGolden()
	if err != nil {
		return err
	}
	// startSrv stops the running server, if any, and starts one on fresh
	// directories; the last one started before the load serves it.
	var srv *pattyProc
	var srvDir string
	started := 0
	startSrv := func() (time.Duration, error) {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		srvDir = filepath.Join(e.cfg.workdir, fmt.Sprintf("serve-%d", started))
		started++
		var d time.Duration
		var err error
		srv, d, err = startServer(e.cfg.patty, srvDir)
		return d, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	if err := e.measureSetUp(setupRuns-setupRuns/2, startSrv); err != nil {
		return err
	}
	base, loadDir := srv.url, srvDir

	n := e.cfg.ops
	if n == 0 {
		n = max(int(e.cfg.seconds*serveRate), serveMinJobs)
	}
	plan := servePlan(e.cfg.seed, n)
	recs := make([]serveRec, n)
	e.res.Attempted = n
	newClient := func() *http.Client {
		return &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   opTimeout,
		}
	}
	sender, waiter := newClient(), newClient()
	defer sender.CloseIdleConnections()
	defer waiter.CloseIdleConnections()

	// The waiter trails the sender; the channel holds every job so the
	// sender never blocks on it.
	queued := make(chan int, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range queued {
			r := &recs[i]
			if err := getJSON(waiter, base+"/jobs/"+r.id+"?wait=1", &r.info); err != nil {
				r.info.Status, r.info.Error = jobs.StatusFailed, err.Error()
			}
		}
	}()
	start := time.Now().Add(50 * time.Millisecond)
	interval := time.Second / serveRate
	for i, job := range plan {
		r := &recs[i]
		r.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(r.due))
		r.sent = time.Now()
		r.code, r.id = submit(sender, base, job)
		r.accepted = time.Now()
		if r.code == http.StatusAccepted {
			queued <- i
		}
	}
	close(queued)
	wg.Wait()

	var last time.Time
	var lags []float64
	for i := range recs {
		r := &recs[i]
		lags = append(lags, ms(r.sent.Sub(r.due)))
		switch {
		case r.code != http.StatusAccepted:
			e.res.fail("job %d (%s): submit answered HTTP %d", i, plan[i].Class, r.code)
			continue
		case r.info.Status != jobs.StatusDone:
			e.res.fail("job %d (%s): %s %s", i, plan[i].Class, r.info.Status, r.info.Error)
			continue
		}
		lat := ms(r.info.Finished.Sub(r.due))
		e.res.OpMs = append(e.res.OpMs, lat)
		if plan[i].Class == "cached" && plan[i].Twin != i {
			e.res.CachedMs = append(e.res.CachedMs, lat)
		}
		if r.info.Finished.After(last) {
			last = r.info.Finished
		}
	}
	e.res.WallS = last.Sub(start).Seconds()
	if lag := percentile(sortedCopy(lags), 99); lag > maxLagP99Ms {
		e.res.Invalid = fmt.Sprintf("load generator lag p99 %.2f ms > %.0f ms", lag, maxLagP99Ms)
	}
	checkServeResults(e, base, plan, recs, golden)

	var snap obs.Snapshot
	if err := getJSON(waiter, base+"/metricz", &snap); err != nil {
		return err
	}
	if e.res.PeakRSSMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return err
	}
	if err := e.measureSetUp(setupRuns/2, startSrv); err != nil {
		return err
	}
	srv.stop()
	srv = nil
	if e.tr != nil {
		return serveLayers(e, plan, recs, lags, snap, filepath.Join(loadDir, "cache"))
	}
	return nil
}

// submit posts one job and returns the status code and job id.
func submit(hc *http.Client, base string, job serveJob) (int, string) {
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(job.Body))
	if err != nil {
		return 0, ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", job.Tenant)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.ID
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkServeResults checks every finished job's answer: fuzz jobs
// found no divergence, tune jobs found the golden best and cost, and
// each cache-answered resubmission is byte-identical to its cold twin.
func checkServeResults(e *env, base string, plan []serveJob, recs []serveRec, golden tuneGolden) {
	hc := &http.Client{Timeout: opTimeout}
	defer hc.CloseIdleConnections()
	for i := range recs {
		r := &recs[i]
		if r.info.Status != jobs.StatusDone {
			continue
		}
		var doc struct {
			Result json.RawMessage `json:"result"`
		}
		if err := getJSON(hc, base+"/jobs/"+r.id+"/result", &doc); err != nil {
			e.res.fail("job %d: %v", i, err)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc.Result); err != nil {
			e.res.fail("job %d: result: %v", i, err)
			continue
		}
		r.result = compact.Bytes()
		job := plan[i]
		switch {
		case job.Class == "fuzz":
			var fz struct{ Programs, Divergences int }
			if err := json.Unmarshal(r.result, &fz); err != nil || fz.Programs != 4 || fz.Divergences != 0 {
				e.res.fail("job %d (fuzz): %s", i, r.result)
			}
		case job.Class == "cached" && job.Twin != i:
			if twin := recs[job.Twin].result; !bytes.Equal(r.result, twin) {
				e.res.fail("job %d: cached answer differs from its cold twin (job %d)", i, job.Twin)
			}
		default:
			var tn struct {
				Best map[string]int `json:"best"`
				Cost float64        `json:"cost"`
			}
			if err := json.Unmarshal(r.result, &tn); err != nil {
				e.res.fail("job %d (%s): %v", i, job.Class, err)
			} else if err := golden.check(job.Cores, tn.Best, tn.Cost); err != nil {
				e.res.fail("job %d (%s): %v", i, job.Class, err)
			}
		}
	}
}

// serveLayers derives the per-layer metrics of a traced serve-mix run:
// client and server timestamps per job, then probes of the layers the
// server hides (store appends, cache lookups under concurrent inserts,
// journal appends), each on its own directory after the load.
func serveLayers(e *env, plan []serveJob, recs []serveRec, lags []float64, snap obs.Snapshot, cacheDir string) error {
	tr := e.tr
	for _, l := range lags {
		e.res.layer("loadgen.lag_ms", l)
	}
	for i := range recs {
		r := &recs[i]
		if r.code != http.StatusAccepted || r.info.Status != jobs.StatusDone {
			continue
		}
		root := tr.add("op", 0, i, r.due, r.info.Finished)
		tr.add("loadgen.lag", root, i, r.due, r.sent)
		tr.add("serve.admission", root, i, r.sent, r.accepted)
		tr.add("jobs.queue_wait", root, i, r.info.Submitted, r.info.Started)
		tr.add("jobs.run", root, i, r.info.Started, r.info.Finished)
		e.res.layer("serve.admission_ms", ms(r.accepted.Sub(r.sent)))
		e.res.layer("jobs.queue_wait_ms", ms(r.info.Started.Sub(r.info.Submitted)))
		run := ms(r.info.Finished.Sub(r.info.Started))
		switch job := plan[i]; {
		case job.Class == "fuzz":
			e.res.layer("jobs.fuzz_run_ms", run)
		case job.Class == "cached" && job.Twin != i:
			e.res.layer("jobs.cached_run_ms", run)
		default:
			e.res.layer("jobs.tune_run_ms", run)
		}
		if plan[i].Sources != nil {
			var err error
			e.res.layer("evalcache.program_hash_ms", tr.do("evalcache.program_hash", 0, i, func() {
				_, err = evalcache.ProgramHash(plan[i].Sources)
			}))
			if err != nil {
				return err
			}
		}
	}
	for _, v := range e.res.CachedMs {
		e.res.layer("serve.cached_op_ms", v)
	}
	if lookups := snap.Counters["cache.hits"] + snap.Counters["cache.misses"]; lookups > 0 {
		e.res.layer("evalcache.hit_ratio", float64(snap.Counters["cache.hits"])/float64(lookups))
	}
	if err := storeProbe(e, plan, recs); err != nil {
		return err
	}
	insertRate := float64(snap.Counters["cache.inserts"]) / e.res.WallS
	if err := cacheProbe(e, cacheDir, insertRate, recs); err != nil {
		return err
	}
	return journalProbe(e)
}

// storeProbe replays the journal records of the first jobs (accepted,
// checkpoint, started, finalized, with the workload's spec and result
// bytes) into a fresh store and times each append.
func storeProbe(e *env, plan []serveJob, recs []serveRec) error {
	dir := filepath.Join(e.cfg.workdir, "store-probe")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	root := e.tr.begin("store.probe", 0, 0)
	defer e.tr.end(root)
	jobsDone := 0
	for i := range recs {
		r := &recs[i]
		if r.info.Status != jobs.StatusDone || jobsDone == probeJobs {
			continue
		}
		jobsDone++
		queued := r.info
		queued.Status = jobs.StatusQueued
		appends := []func() error{
			func() error { return st.JobAccepted(queued, plan[i].Body) },
			func() error { return st.JobCheckpoint(r.id, filepath.Join(dir, r.id+".ckpt")) },
			func() error { return st.JobStarted(r.id) },
			func() error { return st.JobFinalized(r.info, json.RawMessage(r.result)) },
		}
		for _, f := range appends {
			var err error
			e.res.layer("store.append_ms", e.tr.do("store.append", root, i, func() { err = f() }))
			if err != nil {
				return err
			}
		}
		e.res.layer("store.appends_per_job", float64(len(appends)))
	}
	return nil
}

// cacheProbe reopens the run's evaluation store and times 1500 lookups
// of present keys, one a millisecond, while a concurrent stream inserts
// at the rate the server reported.
func cacheProbe(e *env, dir string, insertRate float64, recs []serveRec) (err error) {
	cs, err := evalcache.Open(dir, evalcache.Options{})
	if err != nil {
		return err
	}
	defer cs.Close()
	root := e.tr.begin("evalcache.probe", 0, 0)
	defer e.tr.end(root)
	var payload []byte // a real job result, so frames have the served size
	for _, r := range recs {
		if len(r.result) > 0 {
			payload = r.result
			break
		}
	}
	const keys = 200
	key := func(k int) evalcache.Key {
		return evalcache.Key{Program: "bench-probe", Config: strconv.Itoa(k)}
	}
	for k := 0; k < keys; k++ {
		if err := cs.Put(evalcache.Entry{Program: "bench-probe", Config: strconv.Itoa(k), Payload: payload}); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var putErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		if insertRate <= 0 {
			return
		}
		tick := time.NewTicker(max(time.Duration(float64(time.Second)/insertRate), time.Millisecond))
		defer tick.Stop()
		for k := keys; ; k++ {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			e.res.layer("evalcache.put_ms", e.tr.do("evalcache.put", root, k, func() {
				putErr = cs.Put(evalcache.Entry{Program: "bench-probe", Config: strconv.Itoa(k), Payload: payload})
			}))
			if putErr != nil {
				return
			}
		}
	}()
	defer func() {
		cancel()
		wg.Wait()
		if err == nil {
			err = putErr
		}
	}()
	for k := 0; k < 1500; k++ {
		var hit bool
		e.res.layer("evalcache.get_ms", e.tr.do("evalcache.get", root, k, func() { _, hit = cs.Get(key(k%keys), "") }))
		if !hit {
			return fmt.Errorf("evalcache probe: key %d missing", k%keys)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// journalProbe times the tuning journal per fresh evaluation:
// Checkpointer.Wrap's outer call minus the objective inside it, over a
// whole linear search (so the growth with record count is in the
// samples), five searches on fresh journals.
func journalProbe(e *env) error {
	dims, start, obj := tuneModel(8)
	root := e.tr.begin("tuning.journal_probe", 0, 0)
	defer e.tr.end(root)
	for rep := 0; rep < 5; rep++ {
		path := filepath.Join(e.cfg.workdir, fmt.Sprintf("journal-%d.ckpt", rep))
		ck, _, err := tuning.NewCheckpointer(path, tuning.SearchMeta{Algo: "linear", Budget: tuneBudget, Dims: dims, Start: start})
		if err != nil {
			return err
		}
		var inner time.Duration
		fresh := false
		timed := func(a map[string]int) float64 {
			t0 := time.Now()
			c := obj(a)
			inner, fresh = time.Since(t0), true
			return c
		}
		wrapped := ck.Wrap(timed)
		journaled := func(a map[string]int) float64 {
			fresh = false
			t0 := time.Now()
			c := wrapped(a)
			if fresh { // not replayed from the journal, so journaled now
				outer := time.Since(t0)
				e.tr.add("tuning.journal_append", root, rep, t0, t0.Add(outer-inner))
				e.res.layer("tuning.journal_append_ms", ms(outer-inner))
			}
			return c
		}
		tuning.LinearSearch{}.TuneCtx(context.Background(), dims, start, journaled, tuneBudget)
		if err := ck.Flush(); err != nil {
			return err
		}
	}
	return nil
}
