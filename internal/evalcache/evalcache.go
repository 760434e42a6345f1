// Package evalcache is the persistent content-addressed evaluation
// store: measured configuration costs keyed by (canonical program
// hash, config key, seed), shared across jobs, tenants and restarts.
// A resubmitted or reformatted program whose canonical hash matches a
// prior submission answers from cache instead of re-running the
// measurement — the cross-job memoization leg of ROADMAP item 2.
// ProgramHash names a function's locals through deps.Resolve, the
// lexical resolver of the dependence analysis; the package keeps no
// scope rules of its own.
//
// Entries live in append-only segment files (seg-NNNNNNNN.cas) of
// internal/durable's record format: a SIGKILL at any byte leaves a
// segment whose maximal valid prefix is recoverable. A torn tail is
// truncated and appending continues; a segment damaged mid-file is
// quarantined (renamed aside) and its valid prefix re-appended to a
// fresh segment, so damage is never silently dropped and never yields
// a wrong hit. The store is
// size-bounded: when the on-disk footprint exceeds MaxBytes the oldest
// sealed segments are evicted whole, FIFO.
//
// The store publishes the cache.* metrics on the Collector passed in
// Options (report.CacheTable documents and renders them); `patty
// cache` reads the store's traffic and size there.
package evalcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"patty/internal/durable"
	"patty/internal/obs"
)

// segMagic opens every segment frame.
const segMagic = "casrec "

// Key addresses one evaluation: the canonical program hash (or spec
// hash for non-program workloads), the configuration's canonical
// assignment key, and the measurement seed. Two searches that agree on
// all three measure the same cost, whoever submitted them.
type Key struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Seed    int64  `json:"seed"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s|%s|%d", k.Program, k.Config, k.Seed)
}

// Entry is one cached evaluation. Cost is the measured objective;
// Faulted records a measurement that ended in +Inf (panic, injected
// fault) — IEEE infinities don't survive JSON, so the flag carries
// them. Payload optionally holds a full result document (serve uses it
// to answer whole resubmitted jobs). Tenant records who paid for the
// measurement — attribution only, never part of the address: the cost
// of a pure objective is tenant-independent, which is exactly why
// cross-tenant sharing is sound.
type Entry struct {
	Program string  `json:"program"`
	Config  string  `json:"config"`
	Seed    int64   `json:"seed,omitempty"`
	Cost    float64 `json:"cost"`
	Faulted bool    `json:"faulted,omitempty"`
	Payload []byte  `json:"payload,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
}

// Key returns the entry's address.
func (e Entry) Key() Key { return Key{Program: e.Program, Config: e.Config, Seed: e.Seed} }

// EffectiveCost reconstructs the measured cost, mapping the Faulted
// flag back to +Inf so a cached faulted config trips breakers exactly
// like a fresh measurement would.
func (e Entry) EffectiveCost() float64 {
	if e.Faulted {
		return inf()
	}
	return e.Cost
}

func inf() float64 { f := 0.0; return 1 / f }

const (
	// DefaultMaxBytes bounds the store at 64 MiB unless overridden.
	DefaultMaxBytes = int64(64 << 20)
	// defaultSegmentBytes seals segments at 1 MiB so eviction has
	// reasonably fine FIFO granularity.
	defaultSegmentBytes = int64(1 << 20)
)

// Options configures Open.
type Options struct {
	// MaxBytes bounds the on-disk footprint; oldest sealed segments are
	// evicted whole when exceeded. <=0 means DefaultMaxBytes.
	MaxBytes int64
	// SegmentBytes seals the active segment once it grows past this
	// size. <=0 means 1 MiB.
	SegmentBytes int64
	// Collector receives the cache.* metric grammar (nil: discarded).
	Collector *obs.Collector
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	Segments    int      // segment files scanned
	Entries     int      // live entries recovered into the index
	TornBytes   int64    // bytes truncated from torn tails
	Quarantined []string // damaged segment files renamed aside
}

type segment struct {
	seq  int
	path string
	size int64
	keys []string // every key ever appended here (liveness checked via segOf)
}

// Store is the open cache. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	fsys  durable.FS
	dir   string
	opts  Options
	index map[string]Entry // key string -> live entry
	segOf map[string]int   // key string -> seq of segment holding its live frame
	segs  map[int]*segment
	order []int // seg seqs, ascending (order[len-1] == active)

	active    *durable.Log
	activeSeq int
	total     int64
	rec       Recovery
	closed    bool

	hits, misses, inserts, evicts, corrupt *obs.Counter
	entriesG, bytesG, segsG                *obs.Gauge
	coll                                   *obs.Collector
}

// Open scans dir (creating it if needed), recovers every segment's
// maximal valid prefix, and returns a store ready for lookups and
// appends. Torn tails are truncated in place; corrupt segments are
// renamed aside with a .quarantined suffix and their valid prefix
// re-appended to a fresh segment, so a damaged file can never satisfy
// a lookup.
func Open(dir string, opts Options) (*Store, error) { return open(durable.OS, dir, opts) }

func open(fsys durable.FS, dir string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		fsys:  fsys,
		dir:   dir,
		opts:  opts,
		index: make(map[string]Entry),
		segOf: make(map[string]int),
		segs:  make(map[int]*segment),
		coll:  opts.Collector,

		hits:     opts.Collector.Counter("cache.hits"),
		misses:   opts.Collector.Counter("cache.misses"),
		inserts:  opts.Collector.Counter("cache.inserts"),
		evicts:   opts.Collector.Counter("cache.evictions"),
		corrupt:  opts.Collector.Counter("cache.corrupt"),
		entriesG: opts.Collector.Gauge("cache.entries"),
		bytesG:   opts.Collector.Gauge("cache.bytes"),
		segsG:    opts.Collector.Gauge("cache.segments"),
	}

	names, _, err := segmentFiles(fsys, dir)
	if err != nil {
		return nil, err
	}
	var reappend []Entry
	maxSeq := 0
	for _, sf := range names {
		maxSeq = max(maxSeq, sf.seq)
		s.rec.Segments++
		l, salvage, err := s.openSegment(sf.seq, sf.path)
		if err != nil {
			return nil, err
		}
		reappend = append(reappend, salvage...)
		if l != nil {
			if err := l.Close(); err != nil {
				return nil, err
			}
		}
	}
	s.activeSeq = maxSeq // next append rotates to maxSeq+1
	for _, e := range reappend {
		// Salvaged entries re-enter through the normal append path (they
		// were durable once; make them durable again). First-wins: an
		// intact copy of the same key beats the salvaged one.
		if _, ok := s.index[e.Key().String()]; ok {
			continue
		}
		if err := s.append(e, false); err != nil {
			s.Close()
			return nil, err
		}
		// append counts an insert; recovery re-adoption is not new work.
		s.inserts.Add(-1)
	}
	s.rec.Entries = len(s.index)
	s.publish()
	return s, nil
}

// openSegment replays segment seq at path (a missing file is an empty
// segment) and applies the recovery policy. A torn tail is cut and the
// intact prefix adopted, and the open log is returned. A segment
// damaged mid-file is renamed aside and its intact entries are
// returned for salvage instead.
func (s *Store) openSegment(seq int, path string) (l *durable.Log, salvage []Entry, err error) {
	var entries []Entry
	l, tail, err := durable.OpenLog(s.fsys, path, segMagic, replaySegment(func(e Entry) { entries = append(entries, e) }))
	switch {
	case errors.Is(err, durable.ErrCorrupt):
		l.Close()
		qpath := path + ".quarantined"
		if err := s.fsys.Rename(path, qpath); err != nil {
			return nil, nil, err
		}
		s.corrupt.Inc()
		s.rec.Quarantined = append(s.rec.Quarantined, filepath.Base(qpath))
		return nil, entries, nil
	case err != nil && !errors.Is(err, durable.ErrTornTail):
		return nil, nil, err
	}
	s.rec.TornBytes += tail
	s.adopt(seq, path, entries, l.Size())
	return l, nil, nil
}

// adopt registers a cleanly decoded (or truncated-to-valid) segment.
// Replay is last-wins so Correct overrides earlier frames for a key.
func (s *Store) adopt(seq int, path string, entries []Entry, size int64) {
	sg := &segment{seq: seq, path: path, size: size}
	for _, e := range entries {
		k := e.Key().String()
		s.index[k] = e
		s.segOf[k] = seq
		sg.keys = append(sg.keys, k)
	}
	s.segs[seq] = sg
	s.order = append(s.order, seq)
	sort.Ints(s.order)
	s.total += size
}

// Get returns the cached entry for k if present. tenant attributes the
// hit in the per-tenant counters ("" for anonymous/local callers).
func (s *Store) Get(k Key, tenant string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[k.String()]
	if !ok {
		s.misses.Inc()
		return Entry{}, false
	}
	s.hits.Inc()
	if tenant != "" {
		s.coll.CounterOf("cache.tenant.hits", tenant).Inc()
	}
	return e, true
}

// Put stores e if its key is absent; an existing entry wins (costs are
// deterministic per key, so first-wins keeps replay order irrelevant).
func (s *Store) Put(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("evalcache: store closed")
	}
	if _, ok := s.index[e.Key().String()]; ok {
		return nil
	}
	return s.append(e, false)
}

// Correct stores e unconditionally, overriding any existing entry for
// its key — the byzantine-repair path: when a quarantined worker's
// reported cost is re-measured locally, the poisoned cache entry must
// not survive. The override is durable because replay is last-wins.
func (s *Store) Correct(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("evalcache: store closed")
	}
	return s.append(e, true)
}

// append writes one frame to the active segment, rotating and evicting
// as needed. Caller holds s.mu.
func (s *Store) append(e Entry, overwrite bool) error {
	k := e.Key().String()
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("evalcache: marshal entry: %w", err)
	}
	frame := durable.AppendFrame(nil, segMagic, payload)
	needRotate := s.active == nil
	if !needRotate {
		cur := s.segs[s.activeSeq]
		needRotate = cur.size > 0 && cur.size+int64(len(frame)) > s.opts.SegmentBytes
	}
	if needRotate {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	if err := s.active.Append(frame); err != nil {
		return fmt.Errorf("evalcache: %w", err)
	}
	sg := s.segs[s.activeSeq]
	sg.size += int64(len(frame))
	sg.keys = append(sg.keys, k)
	s.total += int64(len(frame))
	if _, existed := s.index[k]; existed && overwrite {
		// The superseded frame lives in an older segment; pointing segOf
		// at the new one both makes replay-last-wins durable and lets
		// FIFO eviction of the old segment skip this key.
		s.segOf[k] = s.activeSeq
		s.index[k] = e
	} else {
		s.index[k] = e
		s.segOf[k] = s.activeSeq
		s.inserts.Inc()
	}
	s.evict()
	s.publish()
	return nil
}

// rotate seals the active segment and opens the next one.
func (s *Store) rotate() error {
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		if err != nil {
			return err
		}
	}
	seq := s.activeSeq + 1
	l, _, err := s.openSegment(seq, filepath.Join(s.dir, segmentName(seq)))
	if err == nil && l == nil {
		err = fmt.Errorf("evalcache: new segment %d holds damaged data", seq)
	}
	if err != nil {
		return err
	}
	s.active, s.activeSeq = l, seq
	return nil
}

// evict drops oldest sealed segments while the footprint exceeds
// MaxBytes. Keys superseded into newer segments survive (segOf points
// past the dropped file). Caller holds s.mu.
func (s *Store) evict() {
	for s.total > s.opts.MaxBytes && len(s.order) > 1 {
		seq := s.order[0]
		sg := s.segs[seq]
		if seq == s.activeSeq {
			return
		}
		dropped := 0
		for _, k := range sg.keys {
			if s.segOf[k] == seq {
				delete(s.index, k)
				delete(s.segOf, k)
				dropped++
			}
		}
		s.fsys.Remove(sg.path)
		s.total -= sg.size
		delete(s.segs, seq)
		s.order = s.order[1:]
		s.evicts.Add(int64(dropped))
	}
}

// publish sets the cache.entries, cache.bytes and cache.segments
// gauges to the store's current size; Open, every append and Compact
// end with it. Caller holds s.mu.
func (s *Store) publish() {
	s.entriesG.Set(int64(len(s.index)))
	s.bytesG.Set(s.total)
	s.segsG.Set(int64(len(s.order)))
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Recovery returns what Open found on disk.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Compact rewrites all live entries into fresh segments and removes
// superseded frames, dead segments and quarantined files — `patty
// cache gc`. Entries are written in sorted key order so the result is
// deterministic for a given index.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("evalcache: store closed")
	}
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		if err != nil {
			return err
		}
	}
	old := s.segs
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	live := make([]Entry, 0, len(keys))
	for _, k := range keys {
		live = append(live, s.index[k])
	}

	s.segs = make(map[int]*segment)
	s.order = nil
	s.total = 0
	s.segOf = make(map[string]int)
	s.index = make(map[string]Entry)
	// Continue the sequence past every old file so a crash mid-compact
	// leaves old and new segments distinguishable by replay order.
	for _, e := range live {
		if err := s.append(e, false); err != nil {
			return err
		}
		s.inserts.Add(-1) // rewrites are not new work
	}
	// Removals need not be durable: a segment that reappears after a
	// crash replays before the rewritten ones, which win.
	for _, sg := range old {
		if s.segs[sg.seq] == nil {
			s.fsys.Remove(sg.path)
		}
	}
	_, quarantined, _ := segmentFiles(s.fsys, s.dir)
	for _, p := range quarantined {
		s.fsys.Remove(p)
	}
	s.publish()
	return nil
}

// Close closes the active segment. The store rejects writes
// afterwards; lookups keep working (read-only shutdown path).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	return s.active.Close()
}

// VerifyReport is the result of a read-only integrity scan.
type VerifyReport struct {
	Segments int      `json:"segments"`
	Entries  int      `json:"entries"`
	Bytes    int64    `json:"bytes"`
	Problems []string `json:"problems,omitempty"`
}

// VerifyDir scans every segment in dir read-only and reports frame
// counts plus any torn or corrupt damage found — `patty cache verify`.
// It never modifies the directory, so it is safe against a live store.
func VerifyDir(dir string) (VerifyReport, error) {
	var rep VerifyReport
	names, quarantined, err := segmentFiles(durable.OS, dir)
	if err != nil {
		return rep, err
	}
	for _, sf := range names {
		raw, err := durable.OS.ReadFile(sf.path)
		if err != nil {
			return rep, err
		}
		entries, validLen, derr := decodeSegment(raw)
		rep.Segments++
		rep.Entries += len(entries)
		rep.Bytes += int64(validLen)
		if derr != nil {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: %v (%d valid entr(ies), %d/%d byte(s) valid)",
					filepath.Base(sf.path), derr, len(entries), validLen, len(raw)))
		}
	}
	for _, p := range quarantined {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%s: quarantined by a previous recovery", filepath.Base(p)))
	}
	return rep, nil
}

type segFile struct {
	seq  int
	path string
}

func segmentName(seq int) string { return fmt.Sprintf("seg-%08d.cas", seq) }

// segmentFiles lists dir's segments in ascending sequence order, and
// the paths of the segments an earlier recovery set aside.
func segmentFiles(fsys durable.FS, dir string) (segs []segFile, quarantined []string, err error) {
	ents, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	for _, de := range ents {
		name := de.Name()
		var seq int
		switch {
		case strings.HasSuffix(name, ".quarantined"):
			quarantined = append(quarantined, filepath.Join(dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".cas"):
			if _, err := fmt.Sscanf(name, "seg-%08d.cas", &seq); err == nil {
				segs = append(segs, segFile{seq: seq, path: filepath.Join(dir, name)})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, quarantined, nil
}

// replaySegment adapts fn to durable's replay callback: fn sees each
// intact entry in order; a payload that is not an entry is damage.
func replaySegment(fn func(Entry)) func(payload []byte) error {
	return func(payload []byte) error {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return err
		}
		fn(e)
		return nil
	}
}

// decodeSegment parses a segment image into its maximal valid entry
// prefix (see durable.Decode for validLen and the error classes).
func decodeSegment(raw []byte) (entries []Entry, validLen int, err error) {
	validLen, err = durable.Decode(segMagic, raw, replaySegment(func(e Entry) { entries = append(entries, e) }))
	return entries, validLen, err
}
