// Package store is the durable job store behind `patty serve
// -store-dir`: a write-ahead log of job lifecycle records (accepted,
// checkpoint-ref, started, finalized) periodically compacted into a
// snapshot. Both files use internal/durable's record format, so a
// SIGKILL at any byte leaves a log whose maximal valid prefix is
// recoverable: recovery replays that prefix and truncates the rest —
// never a panic, never a partial record applied.
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
	// OpCheckpoint: ID's resume journal lives at Path.
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

// decodeWAL parses a WAL image into its maximal valid record prefix
// (see durable.Decode for validLen and the error classes).
func decodeWAL(raw []byte) (recs []Record, validLen int, err error) {
	validLen, err = durable.Decode(walMagic, raw, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, validLen, err
}
