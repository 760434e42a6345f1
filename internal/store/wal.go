// Package store is the durable job store behind `patty serve
// -store-dir`: a write-ahead log of job lifecycle records (accepted,
// started, finalized) periodically compacted into a snapshot. The
// service writes those three per job; a fourth kind, the
// checkpoint-ref, is only written by JobCheckpoint's callers outside
// the service (bench/serve.go's store probe) and still replays. The
// WAL is a durable.Log and the snapshot a durable.Save, so a SIGKILL
// at any byte leaves a log whose maximal valid prefix is recoverable:
// recovery replays that prefix and truncates the rest — never a
// panic, never a partial record applied.
package store

import (
	"encoding/json"
	"time"

	"patty/internal/durable"
	"patty/internal/jobs"
)

// Record operations, one per job lifecycle edge.
const (
	// OpAccepted: the job was admitted; Job and Spec are set. Written
	// before the submitter gets an id, so every acknowledgment is here.
	OpAccepted = "accepted"
	// OpCheckpoint: ID's resume journal lives at Path. jobs.Service does
	// not write it (a recovered job finds its journal by name, from
	// its spec); only JobCheckpoint's direct callers do.
	OpCheckpoint = "ckpt"
	// OpStarted: ID was dispatched to a worker (diagnostic).
	OpStarted = "started"
	// OpFinalized: the job reached a terminal state; Job carries the
	// final Info and Result the result payload. First one wins.
	OpFinalized = "finalized"
)

// Record is one WAL entry.
type Record struct {
	Op     string          `json:"op"`
	ID     string          `json:"id,omitempty"`
	Path   string          `json:"path,omitempty"`
	Job    jobs.Info       `json:"job,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// At is the append wall-clock time (diagnostic only; recovery
	// trusts the Info timestamps).
	At time.Time `json:"at,omitempty"`
}

// walMagic opens every WAL frame (internal/durable's record format).
const walMagic = "walrec "

// replayWAL adapts fn to durable's replay callback: fn sees each
// intact record in order; a payload that is not a record is damage.
func replayWAL(fn func(Record)) func(payload []byte) error {
	return func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		fn(rec)
		return nil
	}
}

// decodeWAL parses a WAL image into its maximal valid record prefix
// (see durable.Decode for validLen and the error classes).
func decodeWAL(raw []byte) (recs []Record, validLen int, err error) {
	validLen, err = durable.Decode(walMagic, raw, replayWAL(func(rec Record) { recs = append(recs, rec) }))
	return recs, validLen, err
}
