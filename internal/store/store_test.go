package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"patty/internal/durable"
	"patty/internal/durable/durabletest"
	"patty/internal/jobs"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func info(id string, seq int64, status jobs.Status) jobs.Info {
	return jobs.Info{
		ID: id, Kind: "tune", Status: status, Tenant: "acme", Seq: seq,
		Submitted: time.Unix(1700000000+seq, 0).UTC(),
	}
}

// TestStoreRoundTrip: the full lifecycle survives a close/reopen.
// TestFreshOpenIsClean: a first boot on an empty directory must not
// report repairs — a missing snapshot is not a corrupt one (it is a
// wrapped fs.ErrNotExist, which os.IsNotExist would misclassify).
func TestFreshOpenIsClean(t *testing.T) {
	s := openT(t, t.TempDir())
	if rec := s.Recovery(); rec != (Recovery{}) {
		t.Fatalf("fresh open reported recovery: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(s.dir, snapName+".corrupt")); err == nil {
		t.Fatal("fresh open quarantined a snapshot that never existed")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), []byte(`{"algo":"tabu"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("j1", "/ckpt/tune-tabu.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobStarted("j1"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobAccepted(info("j2", 2, jobs.StatusQueued), []byte(`{"algo":"random"}`)); err != nil {
		t.Fatal(err)
	}
	done := info("j1", 1, jobs.StatusDone)
	if err := s.JobFinalized(done, map[string]int{"cost": 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	list := r.Jobs()
	if len(list) != 2 || list[0].Info.ID != "j1" || list[1].Info.ID != "j2" {
		t.Fatalf("recovered jobs: %+v", list)
	}
	j1, _ := r.Get("j1")
	if j1.Info.Status != jobs.StatusDone || j1.Checkpoint != "/ckpt/tune-tabu.ckpt" || !j1.Started {
		t.Fatalf("j1 state: %+v", j1)
	}
	var res map[string]int
	if err := json.Unmarshal(j1.Result, &res); err != nil || res["cost"] != 7 {
		t.Fatalf("j1 result: %s err=%v", j1.Result, err)
	}
	if string(j1.Spec) != `{"algo":"tabu"}` {
		t.Fatalf("j1 spec: %s", j1.Spec)
	}
	j2, _ := r.Get("j2")
	if j2.Info.Status != jobs.StatusQueued || j2.Started {
		t.Fatalf("j2 must still be queued: %+v", j2)
	}
	if r.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d", r.MaxSeq())
	}
	if rec := r.Recovery(); rec.WALErr != "" || rec.SnapshotCorrupt {
		t.Fatalf("clean reopen reported damage: %+v", rec)
	}
}

// TestStoreCrashNoClose: a store abandoned without Close (the SIGKILL
// shape) recovers everything from the WAL alone.
func TestStoreCrashNoClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := int64(1); i <= 5; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.JobFinalized(info("j3", 3, jobs.StatusDone), "best"); err != nil {
		t.Fatal(err)
	}
	// no Close: the WAL file is simply left behind

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 5 {
		t.Fatalf("recovered %d jobs, want 5", got)
	}
	j3, _ := r.Get("j3")
	if j3.Info.Status != jobs.StatusDone {
		t.Fatalf("j3: %+v", j3.Info)
	}
	if rec := r.Recovery(); rec.Records != 6 {
		t.Fatalf("replayed %d records, want 6 (%+v)", rec.Records, rec)
	}
}

func jobID(i int64) string { return "j" + string(rune('0'+i)) }

// TestFirstFinalizeWins: duplicate finalize records (compaction crash
// replay, or a re-run racing recovery) keep the first terminal state.
func TestFirstFinalizeWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusDone), "first"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusFailed), "second"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get("j1")
	if j.Info.Status != jobs.StatusDone || string(j.Result) != `"first"` {
		t.Fatalf("second finalize must lose: %+v result=%s", j.Info, j.Result)
	}
}

// TestCompactionPreservesState: crossing the compaction threshold
// folds the WAL into the snapshot with nothing lost, and the WAL
// actually shrinks.
func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.SetCompactEvery(4)
	for i := int64(1); i <= 9; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// 9 appends at compact-every-4: two compactions happened, at most
	// one record sits in the live WAL.
	raw, _ := os.ReadFile(filepath.Join(dir, walName))
	recs := 0
	_, derr := durable.Decode(walMagic, raw, func([]byte) error { recs++; return nil })
	if derr != nil || recs > 1 {
		t.Fatalf("live WAL holds %d records (err %v), size %d", recs, derr, st.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 9 {
		t.Fatalf("recovered %d jobs after compaction, want 9", got)
	}
	if r.MaxSeq() != 9 {
		t.Fatalf("MaxSeq = %d", r.MaxSeq())
	}
}

// TestCompactionCrashReplaysIdempotently simulates the crash window
// between snapshot write and WAL truncate: records the snapshot
// already holds replay on top of it without doubling anything.
func TestCompactionCrashReplaysIdempotently(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusDone), 42); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot but "crash" before truncating the WAL.
	walBefore, _ := os.ReadFile(filepath.Join(dir, walName))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, walName), walBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 1 {
		t.Fatalf("idempotent replay produced %d jobs, want 1", got)
	}
	j, _ := r.Get("j1")
	if j.Info.Status != jobs.StatusDone || string(j.Spec) != `{"a":1}` {
		t.Fatalf("replayed job: %+v spec=%s", j.Info, j.Spec)
	}
}

// TestCorruptSnapshotQuarantined: a damaged snapshot must not brick
// the store — it is moved aside and recovery continues from the WAL.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Journal one more record so the WAL still holds something.
	if err := s.JobStarted("j1"); err != nil {
		t.Fatal(err)
	}
	s.Close() // final compact folds everything into the snapshot
	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	rec := r.Recovery()
	if !rec.SnapshotCorrupt || rec.SnapshotErr == "" {
		t.Fatalf("recovery must flag the snapshot: %+v", rec)
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestWALTornTailTruncated: a partial final record (crash mid-append)
// is cut off, everything before it survives, and the store keeps
// accepting appends afterwards.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := int64(1); i <= 3; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.wal.Close()
	s.closed = true
	s.mu.Unlock()
	walPath := filepath.Join(dir, walName)
	raw, _ := os.ReadFile(walPath)
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 2 {
		t.Fatalf("recovered %d jobs after torn tail, want 2", got)
	}
	rec := r.Recovery()
	if rec.WALErr == "" || rec.WALTruncated == 0 {
		t.Fatalf("recovery must report the torn tail: %+v", rec)
	}
	// The log is writable again after the repair.
	if err := r.JobAccepted(info("j9", 9, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("j9"); !ok {
		t.Fatal("post-repair append lost")
	}
}

// encodeRecord frames rec the way Store.append writes it.
func encodeRecord(t *testing.T, rec Record) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return durable.AppendFrame(nil, walMagic, payload)
}

// TestWALCorruptionEveryOffset: flip one byte at every offset of a
// multi-record WAL image, and separately truncate at every length.
// Decoding must never panic, must classify the damage with a typed
// error, and must recover exactly the records that are fully intact
// before the damaged byte.
func TestWALCorruptionEveryOffset(t *testing.T) {
	var img []byte
	var ends []int // byte offset just past record i
	n := 4
	for i := int64(1); int(i) <= n; i++ {
		st := jobs.StatusQueued
		if i%2 == 0 {
			st = jobs.StatusDone
		}
		img = append(img, encodeRecord(t, Record{Op: OpAccepted, Job: info(jobID(i), i, st), Spec: []byte(`{"x":"y z"}`)})...)
		ends = append(ends, len(img))
	}
	// intactBefore(off) = how many records end at or before offset off.
	intactBefore := func(off int) int {
		k := 0
		for _, e := range ends {
			if e <= off {
				k++
			}
		}
		return k
	}
	if recs, vl, err := decodeWAL(img); err != nil || len(recs) != n || vl != len(img) {
		t.Fatalf("clean image: %d recs, validLen %d, err %v", len(recs), vl, err)
	}

	t.Run("flip", func(t *testing.T) {
		for off := 0; off < len(img); off++ {
			mut := bytes.Clone(img)
			mut[off] ^= 0xff
			recs, validLen, err := decodeWAL(mut)
			if err == nil {
				t.Fatalf("flip at %d: damage not detected", off)
			}
			if !errors.Is(err, durable.ErrCorrupt) && !errors.Is(err, durable.ErrTornTail) {
				t.Fatalf("flip at %d: untyped error %v", off, err)
			}
			want := intactBefore(off)
			if len(recs) != want {
				t.Fatalf("flip at %d: recovered %d records, want %d (err %v)", off, len(recs), want, err)
			}
			if validLen > off {
				t.Fatalf("flip at %d: validLen %d reaches past the damage", off, validLen)
			}
			for i, r := range recs {
				if r.Job.ID != jobID(int64(i+1)) {
					t.Fatalf("flip at %d: recovered record %d is %q", off, i, r.Job.ID)
				}
			}
		}
	})

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut <= len(img); cut++ {
			recs, validLen, err := decodeWAL(img[:cut])
			want := intactBefore(cut)
			if len(recs) != want {
				t.Fatalf("cut at %d: recovered %d records, want %d (err %v)", cut, len(recs), want, err)
			}
			if validLen != ends0(ends, want) {
				t.Fatalf("cut at %d: validLen %d, want %d", cut, validLen, ends0(ends, want))
			}
			atBoundary := cut == 0 || (want > 0 && ends[want-1] == cut)
			if atBoundary {
				if err != nil {
					t.Fatalf("cut at record boundary %d: unexpected error %v", cut, err)
				}
			} else if !errors.Is(err, durable.ErrTornTail) {
				t.Fatalf("cut at %d: %v, want ErrTornTail", cut, err)
			}
		}
	})
}

// ends0 returns the end offset of the k-th record (0 for k == 0).
func ends0(ends []int, k int) int {
	if k == 0 {
		return 0
	}
	return ends[k-1]
}

// TestServiceWithStoreEndToEnd wires a real jobs.Service to the store
// and proves the acknowledged-work invariants across a simulated
// restart: finished jobs restore terminal with their results, queued
// jobs are still there to resubmit, and nothing runs twice.
func TestServiceWithStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 16, Journal: st})
	id, err := svc.SubmitJob(jobs.Submission{
		Tenant: "acme", Kind: "tune", Spec: []byte(`{"algo":"linear"}`),
		Run: func(ctx context.Context) (any, error) { return map[string]string{"best": "cores=4"}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Wait(waitCtx, id); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	st.Close()

	// "Restart": a fresh store + service recover the finished job.
	st2 := openT(t, dir)
	defer st2.Close()
	svc2 := jobs.New(jobs.Options{Workers: 1, QueueDepth: 16, Journal: st2})
	defer svc2.Close()
	svc2.SetNextSeq(st2.MaxSeq())
	for _, js := range st2.Jobs() {
		if js.Info.Status.Finished() {
			svc2.Restore(js.Info, js.Result)
		}
	}
	res, infoGot, err := svc2.Result(id)
	if err != nil || infoGot.Status != jobs.StatusDone {
		t.Fatalf("restored result: %v %+v %v", res, infoGot, err)
	}
	raw, ok := res.(json.RawMessage)
	if !ok {
		t.Fatalf("restored result type %T", res)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil || m["best"] != "cores=4" {
		t.Fatalf("restored payload: %s err=%v", raw, err)
	}
	// A new submission on the recovered service takes a higher seq.
	id2, err := svc2.Submit("w", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := svc2.Status(id2)
	s1, _ := svc2.Status(id)
	if s2.Seq <= s1.Seq {
		t.Fatalf("recovered seq floor violated: new %d vs old %d", s2.Seq, s1.Seq)
	}
}

// WAL decode edge cases: inputs at the boundaries of the framing
// grammar — an empty image, a tail that is only a frame header, and a
// frame whose declared payload length exceeds the bytes that remain —
// must come back as the precise typed verdicts, never a panic or a
// phantom record.
func TestDecodeWALEdgeCases(t *testing.T) {
	good := encodeRecord(t, Record{Op: OpAccepted, ID: "j1"})

	t.Run("empty image", func(t *testing.T) {
		recs, n, err := decodeWAL(nil)
		if err != nil || n != 0 || len(recs) != 0 {
			t.Fatalf("decodeWAL(nil) = %v, %d, %v; want clean empty", recs, n, err)
		}
		recs, n, err = decodeWAL([]byte{})
		if err != nil || n != 0 || len(recs) != 0 {
			t.Fatalf("decodeWAL(empty) = %v, %d, %v; want clean empty", recs, n, err)
		}
	})

	t.Run("header-only tail", func(t *testing.T) {
		// One good record, then a frame cut right after its header line:
		// the header parses but zero payload bytes follow.
		nl := bytes.IndexByte(good, '\n')
		img := append(bytes.Clone(good), good[:nl+1]...)
		recs, n, err := decodeWAL(img)
		if !errors.Is(err, durable.ErrTornTail) {
			t.Fatalf("err = %v, want ErrTornTail", err)
		}
		if len(recs) != 1 || n != len(good) {
			t.Fatalf("prefix = %d record(s), validLen %d; want 1, %d", len(recs), n, len(good))
		}
		// The same tail with nothing before it: zero records, offset 0.
		recs, n, err = decodeWAL(good[:nl+1])
		if !errors.Is(err, durable.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("bare header = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
		// A header cut before its newline is also a torn tail, not
		// corruption.
		recs, n, err = decodeWAL(good[:nl])
		if !errors.Is(err, durable.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("unterminated header = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
	})

	t.Run("declared length exceeds remaining bytes", func(t *testing.T) {
		// Chop the final payload byte + newline: the header's length field
		// now promises more than the image holds.
		img := append(bytes.Clone(good), good[:len(good)-2]...)
		recs, n, err := decodeWAL(img)
		if !errors.Is(err, durable.ErrTornTail) {
			t.Fatalf("err = %v, want ErrTornTail", err)
		}
		if len(recs) != 1 || n != len(good) {
			t.Fatalf("prefix = %d record(s), validLen %d; want 1, %d", len(recs), n, len(good))
		}
		// An absurd declared length with all framing intact is still a
		// torn tail by the grammar (bytes merely missing), and must not
		// allocate or scan past the image.
		huge := []byte(walMagic + "00000000 9999999999\nx")
		recs, n, err = decodeWAL(huge)
		if !errors.Is(err, durable.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("huge length = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
	})
}

// TestStoreFileCounts pins the WAL's cost on the fake filesystem: one
// write and one fsync per record, and three records per served job
// (accepted, started, finalized) through jobs.Service.
func TestStoreFileCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T, s *Store)
		records int
	}{
		{"one per record", func(t *testing.T, s *Store) {
			s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil)
			s.JobCheckpoint("j1", "j1.ckpt")
			s.JobStarted("j1")
			s.JobFinalized(info("j1", 1, jobs.StatusDone), "best")
		}, 4},
		{"three per served job", func(t *testing.T, s *Store) {
			svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 16, Journal: s})
			defer svc.Close()
			for i := 0; i < 3; i++ {
				id, err := svc.Submit("acme", func(ctx context.Context) (any, error) { return "ok", nil })
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.Wait(context.Background(), id); err != nil {
					t.Fatal(err)
				}
			}
		}, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := durabletest.New()
			s, err := open(fsys, "d")
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, s)
			if w, sy, _ := fsys.Counts(); w != tc.records || sy != tc.records {
				t.Fatalf("%d write(s), %d fsync(s); want %d each", w, sy, tc.records)
			}
			if rec := s.Recovery(); rec.Records != 0 {
				t.Fatalf("fresh store replayed %d record(s)", rec.Records)
			}
		})
	}
}

// TestStoreFailedAppend: after a WAL write fails partway or its fsync
// fails, the store refuses every later submission, and a restart
// recovers exactly the jobs whose admission was acknowledged.
func TestStoreFailedAppend(t *testing.T) {
	for _, tc := range []struct {
		name                string
		failWrite, failSync int
	}{{"write fails partway", 3, 0}, {"fsync fails", 0, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := durabletest.New()
			fsys.FailWrite, fsys.FailSync = tc.failWrite, tc.failSync
			s, err := open(fsys, "d")
			if err != nil {
				t.Fatal(err)
			}
			var acked []string
			for i := int64(1); i <= 6; i++ {
				if s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), nil) == nil {
					acked = append(acked, jobID(i))
				}
			}
			if len(acked) != 2 {
				t.Fatalf("acknowledged %v, want the two before the failure", acked)
			}
			r, err := open(fsys, "d")
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, js := range r.Jobs() {
				got = append(got, js.Info.ID)
			}
			if !reflect.DeepEqual(got, acked) {
				t.Fatalf("recovered %v, want exactly the acknowledged %v", got, acked)
			}
		})
	}
}

// TestStoreCrashEveryBoundary kills the store at every write and fsync
// boundary of a record sequence: the restarted store replays exactly
// the acknowledged records, plus at most the one in flight.
func TestStoreCrashEveryBoundary(t *testing.T) {
	appends := []func(s *Store) error{
		func(s *Store) error { return s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil) },
		func(s *Store) error { return s.JobAccepted(info("j2", 2, jobs.StatusQueued), nil) },
		func(s *Store) error { return s.JobStarted("j1") },
		func(s *Store) error { return s.JobFinalized(info("j1", 1, jobs.StatusDone), "best") },
	}
	for _, cp := range durabletest.CrashPoints(len(appends)) {
		t.Run(cp.String(), func(t *testing.T) {
			fsys := cp.Arm()
			s, err := open(fsys, "d")
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, app := range appends {
				if app(s) != nil {
					break
				}
				acked++
			}
			after := fsys.Crash(cp.Keep)
			r, err := open(after, "d")
			if err != nil {
				t.Fatal(err)
			}
			n := r.Recovery().Records
			if n != acked && n != acked+1 || n > len(appends) {
				t.Fatalf("replayed %d record(s); %d were acknowledged", n, acked)
			}
			if j1, _ := r.Get("j1"); acked == len(appends) && j1.Info.Status != jobs.StatusDone {
				t.Fatalf("acknowledged finalize lost: %+v", j1.Info)
			}
			// The recovered WAL takes appends that survive the next restart.
			if err := r.JobAccepted(info("j9", 9, jobs.StatusQueued), nil); err != nil {
				t.Fatal(err)
			}
			if again, err := open(after, "d"); err != nil || again.Recovery().Records != n+1 || again.Recovery().WALErr != "" {
				t.Fatalf("after an append past the recovery: %+v, %v", again.Recovery(), err)
			}
		})
	}
}
