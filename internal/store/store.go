package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"patty/internal/durable"
	"patty/internal/jobs"
)

// snapshotKind is the internal/durable kind tag of the compacted job
// snapshot.
const snapshotKind = "serve-jobs"

const (
	walName  = "jobs.wal"
	snapName = "jobs.snap"
)

// DefaultCompactEvery is how many appended records trigger a
// compaction (snapshot + WAL truncate).
const DefaultCompactEvery = 512

// JobState is everything the store knows about one job: the last
// journaled Info, the opaque submission spec a restarted server
// rebuilds the Runner from, the resume-checkpoint path, and (for
// finished jobs) the result payload.
type JobState struct {
	Info       jobs.Info       `json:"info"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	Checkpoint string          `json:"checkpoint,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	// Started reports that some process dispatched the job at least
	// once before; recovery re-runs it regardless (it is acknowledged
	// and unfinalized), the flag is diagnostic.
	Started bool `json:"started,omitempty"`
}

// snapshot is the compacted on-disk image.
type snapshot struct {
	MaxSeq int64       `json:"max_seq"`
	Jobs   []*JobState `json:"jobs"`
}

// Recovery describes what Open found and repaired. A clean start is
// the zero value with Records == 0.
type Recovery struct {
	// Records is how many WAL records replayed on top of the snapshot.
	Records int
	// SnapshotCorrupt reports a damaged snapshot file; it was moved
	// aside to jobs.snap.corrupt and recovery continued from the WAL.
	SnapshotCorrupt bool
	// SnapshotErr is the typed snapshot error's text ("" when clean).
	SnapshotErr string
	// WALTruncated is how many damaged tail bytes were cut off.
	WALTruncated int
	// WALErr is the typed WAL error's text: a torn tail (expected
	// crash damage) or corruption ("" when clean).
	WALErr string
}

// Store is the durable job store. It implements jobs.Journal, so
// handing it to jobs.Options.Journal is the whole wiring.
type Store struct {
	dir          string
	compactEvery int

	mu           sync.Mutex
	wal          *os.File
	jobs         map[string]*JobState
	maxSeq       int64
	sinceCompact int
	recovery     Recovery
	closed       bool
}

// Open loads (creating if needed) the store in dir: snapshot first,
// then the WAL replayed on top, damaged tails truncated. It never
// refuses to start over repairable damage — a corrupt snapshot is
// quarantined aside and a corrupt WAL is cut at its last valid record,
// both reported in Recovery().
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		compactEvery: DefaultCompactEvery,
		jobs:         make(map[string]*JobState),
	}

	// Snapshot: the compacted prefix of history.
	var snap snapshot
	snapPath := filepath.Join(dir, snapName)
	switch err := durable.Load(snapPath, snapshotKind, &snap); {
	case err == nil:
		for _, js := range snap.Jobs {
			s.jobs[js.Info.ID] = js
		}
		s.maxSeq = snap.MaxSeq
	case errors.Is(err, fs.ErrNotExist):
		// first boot
	default:
		// Damaged snapshot: quarantine it and rebuild from the WAL
		// rather than refuse to serve.
		s.recovery.SnapshotCorrupt = true
		s.recovery.SnapshotErr = err.Error()
		os.Rename(snapPath, snapPath+".corrupt")
	}

	// WAL: replay the tail of history, truncating any damage.
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	recs, validLen, derr := decodeWAL(raw)
	for _, rec := range recs {
		s.applyLocked(rec)
	}
	s.recovery.Records = len(recs)
	if derr != nil {
		s.recovery.WALErr = derr.Error()
		s.recovery.WALTruncated = len(raw) - validLen
		if err := durable.TruncateSync(walPath, int64(validLen)); err != nil {
			return nil, fmt.Errorf("store: truncate damaged WAL: %w", err)
		}
	}
	s.sinceCompact = s.recovery.Records

	s.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// applyLocked folds one record into the in-memory state. Replay is
// idempotent: duplicate accepted records are ignored and the first
// finalize wins, which is what makes compaction crash-safe (a crash
// between snapshot write and WAL truncate replays records the snapshot
// already holds) and results exactly-once.
func (s *Store) applyLocked(rec Record) {
	switch rec.Op {
	case OpAccepted:
		if _, dup := s.jobs[rec.Job.ID]; dup {
			return
		}
		s.jobs[rec.Job.ID] = &JobState{Info: rec.Job, Spec: rec.Spec}
		if rec.Job.Seq > s.maxSeq {
			s.maxSeq = rec.Job.Seq
		}
	case OpCheckpoint:
		if js := s.jobs[rec.ID]; js != nil {
			js.Checkpoint = rec.Path
		}
	case OpStarted:
		if js := s.jobs[rec.ID]; js != nil && !js.Info.Status.Finished() {
			js.Started = true
			js.Info.Status = jobs.StatusRunning
			js.Info.Started = rec.At
		}
	case OpFinalized:
		js := s.jobs[rec.Job.ID]
		if js == nil {
			js = &JobState{}
			s.jobs[rec.Job.ID] = js
		} else if js.Info.Status.Finished() {
			return // first finalize wins
		}
		spec := js.Spec
		js.Info = rec.Job
		js.Spec = spec
		js.Result = rec.Result
		if rec.Job.Seq > s.maxSeq {
			s.maxSeq = rec.Job.Seq
		}
	}
}

// append journals one record durably (write + fsync) and then applies
// it, compacting when due.
func (s *Store) append(rec Record) error {
	rec.At = time.Now()
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	frame := durable.AppendFrame(nil, walMagic, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.applyLocked(rec)
	s.sinceCompact++
	if s.sinceCompact >= s.compactEvery {
		return s.compactLocked()
	}
	return nil
}

// compactLocked folds the WAL into a fresh snapshot (durable.Save's
// atomic rename) and resets the log. A crash between the two
// steps only leaves records the snapshot already holds — replay is
// idempotent, so nothing is lost or doubled.
func (s *Store) compactLocked() error {
	snap := snapshot{MaxSeq: s.maxSeq, Jobs: s.sortedLocked()}
	if err := durable.Save(filepath.Join(s.dir, snapName), snapshotKind, snap); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: compact truncate: %w", err)
	}
	s.sinceCompact = 0
	return nil
}

// Compact forces a compaction (tests, shutdown).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

// SetCompactEvery overrides the compaction period (tests).
func (s *Store) SetCompactEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.compactEvery = n
	}
}

// sortedLocked snapshots the job map in Seq order.
func (s *Store) sortedLocked() []*JobState {
	out := make([]*JobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		cp := *js
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Info.Seq != out[k].Info.Seq {
			return out[i].Info.Seq < out[k].Info.Seq
		}
		return out[i].Info.ID < out[k].Info.ID
	})
	return out
}

// Jobs returns every known job in accepted-seq order (copies).
func (s *Store) Jobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := s.sortedLocked()
	out := make([]JobState, len(states))
	for i, js := range states {
		out[i] = *js
	}
	return out
}

// Get returns one job's state.
func (s *Store) Get(id string) (JobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return JobState{}, false
	}
	return *js, true
}

// MaxSeq is the highest admission sequence ever journaled — the floor
// for new ids after recovery.
func (s *Store) MaxSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeq
}

// Recovery reports what Open found.
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Close compacts once more and releases the WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.compactLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- jobs.Journal implementation ---

// JobAccepted journals admission; called before the submitter gets an
// id, so its error refuses the submission.
func (s *Store) JobAccepted(info jobs.Info, spec []byte) error {
	return s.append(Record{Op: OpAccepted, Job: info, Spec: spec})
}

// JobCheckpoint journals the job's resume-journal path. The job
// service no longer writes it (a recovered job finds its journal by
// name, from its spec); bench/serve.go's store probe still times it.
func (s *Store) JobCheckpoint(id, path string) error {
	return s.append(Record{Op: OpCheckpoint, ID: id, Path: path})
}

// JobStarted journals dispatch.
func (s *Store) JobStarted(id string) error {
	return s.append(Record{Op: OpStarted, ID: id})
}

// JobFinalized journals the terminal state and result. jobs.Service
// calls it before the result becomes observable — the exactly-once
// ordering.
func (s *Store) JobFinalized(info jobs.Info, result any) error {
	var raw json.RawMessage
	if result != nil {
		b, err := json.Marshal(result)
		if err != nil {
			// An unmarshalable result is still a terminal state: journal
			// the Info so the job never re-runs, drop the payload.
			b = nil
		}
		raw = b
	}
	return s.append(Record{Op: OpFinalized, Job: info, Result: raw})
}
