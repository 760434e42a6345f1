package evalcache

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"patty/internal/durable/durabletest"
	"patty/internal/obs"
)

func testEntry(i int, cost float64) Entry {
	return Entry{Program: "prog", Config: fmt.Sprintf("c=%d", i), Seed: 1, Cost: cost}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("reopened store has %d entries, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		e, ok := s2.Get(testEntry(i, 0).Key(), "")
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if e.Cost != float64(i) {
			t.Fatalf("entry %d cost %v, want %d", i, e.Cost, i)
		}
	}
}

func TestStoreFirstWinsAndCorrectOverrides(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	// Put is first-wins: a second write of the key is a no-op.
	dup := e
	dup.Cost = 99
	if err := s.Put(dup); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(e.Key(), ""); got.Cost != 10 {
		t.Fatalf("Put overwrote: cost %v, want 10", got.Cost)
	}
	// Correct overrides — the byzantine-repair path.
	fix := e
	fix.Cost = 42
	if err := s.Correct(fix); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(e.Key(), ""); got.Cost != 42 {
		t.Fatalf("Correct did not override: cost %v", got.Cost)
	}
	s.Close()

	// The override must be durable: replay is last-wins.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get(e.Key(), ""); got.Cost != 42 {
		t.Fatalf("Correct lost across reopen: cost %v", got.Cost)
	}
}

func TestStoreFaultedRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Program: "p", Config: "c", Faulted: true}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(e.Key(), "")
	if !ok || !got.Faulted {
		t.Fatalf("faulted entry lost: %+v ok=%v", got, ok)
	}
	if !math.IsInf(got.EffectiveCost(), 1) {
		t.Fatalf("EffectiveCost = %v, want +Inf", got.EffectiveCost())
	}
}

func TestStoreEvictionBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := obs.New()
	// Tiny segments and a tiny budget force constant eviction.
	s, err := Open(dir, Options{MaxBytes: 2048, SegmentBytes: 512, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	// The bound allows the active segment to exceed transiently by one
	// frame; sealed-segment FIFO keeps the footprint near MaxBytes.
	if n := snap.Gauges["cache.bytes"]; n > 2048+512 {
		t.Fatalf("store grew past its bound: %d bytes", n)
	}
	if snap.Counters["cache.evictions"] == 0 {
		t.Fatal("no evictions recorded under a tiny budget")
	}
	if n := snap.Gauges["cache.entries"]; n != int64(s.Len()) {
		t.Fatalf("cache.entries gauge = %d, index holds %d", n, s.Len())
	}
	// Recent keys survive; the oldest are gone.
	if _, ok := s.Get(testEntry(199, 0).Key(), ""); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := s.Get(testEntry(0, 0).Key(), ""); ok {
		t.Fatal("oldest entry survived a 2KB budget holding 200 entries")
	}
}

func TestStoreEvictionKeepsSupersededKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{MaxBytes: 1 << 20, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write the key, then enough filler to rotate it out of the active
	// segment, then Correct it (new frame in a newer segment).
	e := testEntry(0, 1)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	fix := e
	fix.Cost = 7
	if err := s.Correct(fix); err != nil {
		t.Fatal(err)
	}
	// Evict segment 1 (where the stale frame lives) by shrinking the
	// budget through direct writes.
	s.mu.Lock()
	s.opts.MaxBytes = 1 // force eviction of everything sealed
	s.evict()
	s.mu.Unlock()
	got, ok := s.Get(e.Key(), "")
	if !ok {
		t.Fatal("corrected key evicted with its superseded segment")
	}
	if got.Cost != 7 {
		t.Fatalf("corrected key cost %v, want 7", got.Cost)
	}
}

func TestStoreTenantHitAttribution(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := obs.New()
	s, err := Open(dir, Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := testEntry(1, 5)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Get(e.Key(), "alice")
	s.Get(e.Key(), "alice")
	s.Get(e.Key(), "bob")
	s.Get(e.Key(), "") // anonymous: counted globally only
	s.Get(Key{Program: "nope", Config: "c"}, "alice")
	snap := c.Snapshot()
	if got := snap.Counters["cache.hits"]; got != 4 {
		t.Fatalf("cache.hits = %d, want 4", got)
	}
	if got := snap.Counters["cache.misses"]; got != 1 {
		t.Fatalf("cache.misses = %d, want 1", got)
	}
	if got := snap.CounterFamilies["cache.tenant.hits"]["alice"]; got != 2 {
		t.Fatalf("alice hits = %d, want 2", got)
	}
	if got := snap.CounterFamilies["cache.tenant.hits"]["bob"]; got != 1 {
		t.Fatalf("bob hits = %d, want 1", got)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := testEntry(i, float64(i)) // shared keys: races resolve first-wins
				if err := s.Put(e); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(e.Key(), "t"); ok && got.Cost != float64(i) {
					t.Errorf("wrong hit: %+v", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("index holds %d keys, want 50", s.Len())
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 50 {
		t.Fatalf("reopen holds %d keys, want 50", s2.Len())
	}
}

func TestStoreCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := obs.New()
	s, err := Open(dir, Options{SegmentBytes: 256, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede half the keys so compaction has dead frames to drop.
	for i := 0; i < 10; i++ {
		fix := testEntry(i, float64(i)+100)
		if err := s.Correct(fix); err != nil {
			t.Fatal(err)
		}
	}
	entries, bytes := c.Gauge("cache.entries"), c.Gauge("cache.bytes")
	beforeEntries, beforeBytes := entries.Value(), bytes.Value()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if entries.Value() != beforeEntries {
		t.Fatalf("compact changed entry count: %d -> %d", beforeEntries, entries.Value())
	}
	if bytes.Value() >= beforeBytes {
		t.Fatalf("compact did not shrink the store: %d -> %d bytes", beforeBytes, bytes.Value())
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 10; i++ {
		got, ok := s2.Get(testEntry(i, 0).Key(), "")
		if !ok || got.Cost != float64(i)+100 {
			t.Fatalf("entry %d after compact+reopen: %+v ok=%v", i, got, ok)
		}
	}
}

func TestVerifyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testEntry(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 || rep.Entries != 5 || len(rep.Problems) != 0 {
		t.Fatalf("clean store verify: %+v", rep)
	}
}

// TestStoreFileCounts pins the segments' cost on the fake filesystem:
// each Put of a new key and each Correct is one write and one fsync, a
// Put of a known key touches nothing, and opening a segment (the first
// write, and each rotation) adds one directory fsync.
func TestStoreFileCounts(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		segBytes                int64
		run                     func(s *Store)
		writes, syncs, dirSyncs int
	}{
		{"put", 0, func(s *Store) {
			for i := 0; i < 5; i++ {
				s.Put(testEntry(i, 1))
			}
		}, 5, 5, 1},
		{"put known key", 0, func(s *Store) {
			for i := 0; i < 5; i++ {
				s.Put(testEntry(0, float64(i)))
			}
		}, 1, 1, 1},
		{"correct", 0, func(s *Store) {
			for i := 0; i < 3; i++ {
				s.Correct(testEntry(0, float64(i)))
			}
		}, 3, 3, 1},
		{"rotation", 1, func(s *Store) {
			for i := 0; i < 3; i++ {
				s.Put(testEntry(i, 1))
			}
		}, 3, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := durabletest.New()
			s, err := open(fsys, "cache", Options{SegmentBytes: tc.segBytes})
			if err != nil {
				t.Fatal(err)
			}
			tc.run(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if w, sy, d := fsys.Counts(); w != tc.writes || sy != tc.syncs || d != tc.dirSyncs {
				t.Fatalf("%d write(s), %d fsync(s), %d directory fsync(s); want %d, %d, %d", w, sy, d, tc.writes, tc.syncs, tc.dirSyncs)
			}
		})
	}
}

// TestStoreFailedAppend: after a segment write fails partway or its
// fsync fails, every later Put is refused, and a reopened store holds
// exactly the entries whose Put returned nil.
func TestStoreFailedAppend(t *testing.T) {
	for _, tc := range []struct {
		name                string
		failWrite, failSync int
	}{{"write fails partway", 3, 0}, {"fsync fails", 0, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := durabletest.New()
			fsys.FailWrite, fsys.FailSync = tc.failWrite, tc.failSync
			s, err := open(fsys, "cache", Options{})
			if err != nil {
				t.Fatal(err)
			}
			acked := map[int]bool{}
			for i := 0; i < 6; i++ {
				if s.Put(testEntry(i, float64(i))) == nil {
					acked[i] = true
				}
			}
			if len(acked) != 2 {
				t.Fatalf("acknowledged %v, want the two before the failure", acked)
			}
			r, err := open(fsys, "cache", Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				if _, ok := r.Get(testEntry(i, 0).Key(), ""); ok != acked[i] {
					t.Fatalf("entry %d recovered %v, acknowledged %v", i, ok, acked[i])
				}
			}
			if rec := r.Recovery(); len(rec.Quarantined) != 0 {
				t.Fatalf("a failed append quarantined %v", rec.Quarantined)
			}
		})
	}
}

// TestStoreCrashEveryBoundary kills the store at every write and fsync
// boundary of a run of Puts across a segment rotation: the reopened
// store holds exactly the acknowledged entries, plus at most the one in
// flight, and quarantines nothing.
func TestStoreCrashEveryBoundary(t *testing.T) {
	const puts = 4
	for _, cp := range durabletest.CrashPoints(puts) {
		t.Run(cp.String(), func(t *testing.T) {
			fsys := cp.Arm()
			opts := Options{SegmentBytes: 200}
			s, err := open(fsys, "cache", opts)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i := 0; i < puts && s.Put(testEntry(i, float64(i))) == nil; i++ {
				acked++
			}
			after := fsys.Crash(cp.Keep)
			r, err := open(after, "cache", opts)
			if err != nil {
				t.Fatal(err)
			}
			n := r.Len()
			if n != acked && n != acked+1 || n > puts {
				t.Fatalf("recovered %d entries; %d were acknowledged", n, acked)
			}
			for i := 0; i < r.Len(); i++ {
				if e, ok := r.Get(testEntry(i, 0).Key(), ""); !ok || e.Cost != float64(i) {
					t.Fatalf("entry %d: %+v, %v", i, e, ok)
				}
			}
			if rec := r.Recovery(); len(rec.Quarantined) != 0 {
				t.Fatalf("a crash quarantined %v", rec.Quarantined)
			}
			// The recovered store takes a Put that survives the next restart.
			if err := r.Put(testEntry(99, 99)); err != nil {
				t.Fatal(err)
			}
			again, err := open(after, "cache", opts)
			if err != nil || again.Len() != n+1 || len(again.Recovery().Quarantined) != 0 || again.Recovery().TornBytes != 0 {
				t.Fatalf("after a Put past the recovery: %d entries, %+v, %v", again.Len(), again.Recovery(), err)
			}
		})
	}
}
