package tuning

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"patty/internal/durable"
)

// journalMagic opens every frame of a tuning journal (internal/durable's
// record format), so no other durable file decodes as one.
const journalMagic = "tunerec "

// ErrCheckpointMismatch reports a checkpoint written by a different
// search (other algorithm, budget, dimensions or start point):
// resuming it would silently answer a different question.
var ErrCheckpointMismatch = errors.New("tuning: checkpoint belongs to a different search")

// SearchMeta pins the identity of a search. Two runs with equal meta
// and a deterministic tuner evaluate configurations in the same order,
// which is what makes resume-from-checkpoint converge to the same best
// as an uninterrupted run.
type SearchMeta struct {
	Algo   string         `json:"algo"`
	Budget int            `json:"budget"`
	Dims   []Dim          `json:"dims"`
	Start  map[string]int `json:"start"`
}

// Signature is the canonical comparable identity of a search: two
// runs with equal signatures answer the same question. The fleet
// protocol ships it with every shard so a worker's evaluation journal
// is never shared between different searches.
func (m SearchMeta) Signature() string { return m.signature() }

// signature is the canonical comparable form of a SearchMeta.
func (m SearchMeta) signature() string {
	dims := append([]Dim(nil), m.Dims...)
	sort.Slice(dims, func(i, j int) bool { return dims[i].Key < dims[j].Key })
	s := fmt.Sprintf("algo=%s;budget=%d;start=%s;", m.Algo, m.Budget, assignKey(m.Start))
	for _, d := range dims {
		s += fmt.Sprintf("dim=%s[%d..%d/%d];", d.Key, d.Min, d.Max, d.step())
	}
	return s
}

// EvalRecord is one completed objective evaluation. Faulted
// evaluations (cost +Inf or NaN) are stored with the flag instead of
// the non-JSON-encodable value.
type EvalRecord struct {
	Assignment map[string]int `json:"assignment"`
	Cost       float64        `json:"cost"`
	Faulted    bool           `json:"faulted,omitempty"`
}

// journalFrame is one record of the journal; one field is set. The
// first frame carries the search's meta; eval frames follow, the last
// one per key winning, and a quarantine frame replaces the quarantine
// set whenever it changes.
type journalFrame struct {
	Meta        *SearchMeta `json:"meta,omitempty"`
	Eval        *EvalRecord `json:"eval,omitempty"`
	Quarantined *[]string   `json:"quarantined,omitempty"`
}

// Checkpointer is the record of a search's measured costs: one cost
// per configuration, in the order configurations were first seen. With
// a journal path it also makes the search resumable by appending every
// evaluation to a durable log; with path "" it keeps the same table in
// memory and writes nothing. Wrap sits between the tuner and the
// objective: a configuration already recorded returns its cost
// instantly (no re-measurement), so a restarted deterministic search
// fast-forwards through the completed prefix and continues exactly
// where the killed run stopped.
type Checkpointer struct {
	log *durable.Log // nil: in memory only
	// Quarantine, when non-nil, supplies the currently quarantined
	// configuration keys (jobs.Breaker.Quarantined); a changed set is
	// journaled with the next write.
	Quarantine func() []string

	order       []string // keys in first-journaled order
	cache       map[string]EvalRecord
	quarantined []string // the set last journaled or replayed
	pending     []byte   // frames waiting for the next write
	resumed     int
}

// NewCheckpointer opens or creates the journal at path for the given
// search; path "" records in memory only and loads nothing. resumed
// reports how many completed evaluations were loaded.
// A torn tail (a crash mid-append) is cut off and the search resumes
// from the intact prefix. A journal for a different search fails with
// ErrCheckpointMismatch; a damaged complete frame fails with
// durable.ErrCorrupt — the caller decides whether to delete and start
// over. Close releases the journal.
func NewCheckpointer(path string, meta SearchMeta) (c *Checkpointer, resumed int, err error) {
	return newCheckpointer(durable.OS, path, meta)
}

func newCheckpointer(fsys durable.FS, path string, meta SearchMeta) (c *Checkpointer, resumed int, err error) {
	c = &Checkpointer{cache: make(map[string]EvalRecord)}
	if path == "" {
		return c, 0, nil
	}
	var prev *SearchMeta
	log, _, err := durable.OpenLog(fsys, path, journalMagic, func(payload []byte) error {
		var f journalFrame
		if err := json.Unmarshal(payload, &f); err != nil {
			return err
		}
		switch {
		case (prev == nil) != (f.Meta != nil):
			return errors.New("journal frame out of place")
		case f.Meta != nil:
			if prev = f.Meta; prev.signature() != meta.signature() {
				return ErrCheckpointMismatch
			}
		case f.Eval != nil:
			c.remember(*f.Eval)
		case f.Quarantined != nil:
			c.quarantined = *f.Quarantined
		default:
			return errors.New("empty journal frame")
		}
		return nil
	})
	switch {
	case prev != nil && prev.signature() != meta.signature():
		err = fmt.Errorf("%w: journal %q holds %s, this run is %s",
			ErrCheckpointMismatch, path, prev.signature(), meta.signature())
	case errors.Is(err, durable.ErrCorrupt):
		err = fmt.Errorf("tuning: journal %s: %w", path, err)
	case err != nil && !errors.Is(err, durable.ErrTornTail):
		return nil, 0, fmt.Errorf("tuning: %w", err)
	default:
		err = nil
	}
	if err != nil {
		log.Close()
		return nil, 0, err
	}
	c.log = log
	if prev == nil {
		// Fresh (or torn before its first frame completed): the meta
		// frame creates the journal.
		c.queue(journalFrame{Meta: &meta})
		if err := c.write(); err != nil {
			log.Close()
			return nil, 0, err
		}
	}
	c.resumed = len(c.order)
	return c, c.resumed, nil
}

// IsFault reports whether cost is the fault signal: infinite or NaN.
func IsFault(cost float64) bool { return math.IsInf(cost, 0) || math.IsNaN(cost) }

// NewRecord builds the record of one evaluation; a fault sets Faulted.
func NewRecord(a map[string]int, cost float64) EvalRecord {
	rec := EvalRecord{Assignment: CopyAssign(a), Cost: cost}
	if IsFault(cost) {
		rec.Cost, rec.Faulted = 0, true
	}
	return rec
}

// remember folds a record into the in-memory table: the last record
// of a key wins, and keys keep the order they first appeared in.
func (c *Checkpointer) remember(rec EvalRecord) {
	key := assignKey(rec.Assignment)
	if _, ok := c.cache[key]; !ok {
		c.order = append(c.order, key)
	}
	c.cache[key] = rec
}

// queue encodes one frame into the pending buffer (none in memory).
// A frame always marshals: NewRecord stores a fault as a flag, never as
// a non-finite cost.
func (c *Checkpointer) queue(f journalFrame) {
	if c.log != nil {
		payload, _ := json.Marshal(f)
		c.pending = durable.AppendFrame(c.pending, journalMagic, payload)
	}
}

// write appends the pending frames, plus a quarantine frame if the set
// changed, with one write and one fsync. After a failed write the
// journal stops growing (durable.Log's rule), so it stays an intact
// prefix with at most a torn tail.
func (c *Checkpointer) write() error {
	if c.Quarantine != nil {
		if q := c.Quarantine(); !slices.Equal(q, c.quarantined) {
			c.quarantined = append([]string{}, q...) // never null in JSON
			c.queue(journalFrame{Quarantined: &c.quarantined})
		}
	}
	if c.log == nil {
		return nil
	}
	err := c.log.Append(c.pending)
	c.pending = c.pending[:0]
	return err
}

// Wrap interposes the journal: cached assignments replay their
// recorded cost, new assignments run obj and are appended durably
// before the cost is returned to the search.
func (c *Checkpointer) Wrap(obj Objective) Objective {
	return func(a map[string]int) float64 {
		if rec, ok := c.cache[assignKey(a)]; ok {
			return rec.EffectiveCost()
		}
		rec := NewRecord(a, obj(a))
		c.remember(rec)
		c.queue(journalFrame{Eval: &rec})
		c.write()
		return rec.EffectiveCost()
	}
}

// Record adds an externally produced evaluation — the fleet
// coordinator merges worker-computed costs through it — without
// invoking an objective. A key already recorded is ignored, so merges
// are idempotent under duplicate shard completions. The frame is
// written by the next Flush; callers batch one Flush per merged shard
// instead of one write per evaluation.
func (c *Checkpointer) Record(a map[string]int, cost float64) {
	if _, ok := c.cache[assignKey(a)]; ok {
		return
	}
	c.Correct(a, cost)
}

// Correct records a cost for an assignment whether or not it is
// already known — the fleet coordinator's byzantine re-verification
// replaces a quarantined worker's lied costs with locally re-measured
// truth (Record alone cannot: it ignores keys already recorded, which
// is right for idempotent merges and wrong for repairs). The last cost
// wins, in memory and on replay, so the repair supersedes the lie. The
// frame is written by the next Flush.
func (c *Checkpointer) Correct(a map[string]int, cost float64) {
	rec := NewRecord(a, cost)
	c.remember(rec)
	c.queue(journalFrame{Eval: &rec})
}

// Lookup returns the recorded evaluation for a canonical assignment key.
func (c *Checkpointer) Lookup(key string) (EvalRecord, bool) {
	rec, ok := c.cache[key]
	return rec, ok
}

// Records returns every recorded evaluation, one per configuration
// with its latest cost, in the order the configurations were first
// recorded.
func (c *Checkpointer) Records() []EvalRecord {
	out := make([]EvalRecord, len(c.order))
	for i, key := range c.order {
		out[i] = c.cache[key]
	}
	return out
}

// EffectiveCost reconstructs the in-memory cost of a record (+Inf
// when the evaluation faulted).
func (r EvalRecord) EffectiveCost() float64 {
	if r.Faulted {
		return math.Inf(1)
	}
	return r.Cost
}

// Flush writes every frame not yet persisted (and the quarantine set,
// if it changed) and reports the first error any write hit; a search
// whose journal could not be written must not advertise itself as
// resumable.
func (c *Checkpointer) Flush() error { return c.write() }

// Close releases the journal file; the record stays readable and
// nothing more is journaled. Closing an in-memory record is a no-op.
func (c *Checkpointer) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// Explored is the number of distinct configurations measured across
// all runs of this search (resumed prefix included).
func (c *Checkpointer) Explored() int { return len(c.cache) }

// Resumed is the number of evaluations replayed from the journal.
func (c *Checkpointer) Resumed() int { return c.resumed }

// Quarantined returns the configuration keys the journal recorded as
// circuit-breaker quarantined, for Breaker.Restore on resume.
func (c *Checkpointer) Quarantined() []string {
	return append([]string(nil), c.quarantined...)
}
