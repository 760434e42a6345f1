package difftest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"patty/internal/durable"
	"patty/internal/seed"
)

// BatchKind tags fuzz-sweep snapshots in the durable.Save envelope.
const BatchKind = "difftest-batch"

// ErrBatchMismatch reports a snapshot written by a different sweep
// (other base seed or program count): resuming it would stitch two
// unrelated sweeps into one summary.
var ErrBatchMismatch = errors.New("difftest: checkpoint belongs to a different sweep")

// BatchState is the serialized progress of a fuzz sweep. Program
// generation and checking are deterministic functions of the program
// index i (its seed is seed.Mix(BaseSeed, i)), so progress is just the
// next unchecked index plus the aggregates; divergent programs are
// stored as their indexes and re-derived on resume rather than
// serialized.
type BatchState struct {
	BaseSeed  int64          `json:"base_seed"`
	N         int            `json:"n"`
	Next      int            `json:"next"`
	Kinds     map[string]int `json:"kinds,omitempty"`
	Divergent []int          `json:"divergent,omitempty"`
}

// Batch is a fuzz sweep: the one loop that generates and checks
// programs, behind patty fuzz and serve's fuzz jobs alike. With a path
// it journals its progress so a killed sweep resumes; without one it
// saves nothing.
type Batch struct {
	path  string
	state BatchState
}

// NewBatch opens or creates the sweep snapshot at path ("" for a sweep
// that saves nothing). resumed reports how many programs a previous
// run already checked. A snapshot for a different (baseSeed, n) fails
// with ErrBatchMismatch; a damaged one with durable.ErrCorrupt.
func NewBatch(path string, baseSeed int64, n int) (b *Batch, resumed int, err error) {
	b = &Batch{path: path}
	b.state = BatchState{BaseSeed: baseSeed, N: n, Kinds: make(map[string]int)}
	if path == "" {
		return b, 0, nil
	}
	err = durable.Load(durable.OS, path, BatchKind, &b.state)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh sweep.
	case err != nil:
		return nil, 0, err
	default:
		if b.state.BaseSeed != baseSeed || b.state.N != n {
			return nil, 0, fmt.Errorf("%w: snapshot %q is seed=%d n=%d, this run is seed=%d n=%d",
				ErrBatchMismatch, path, b.state.BaseSeed, b.state.N, baseSeed, n)
		}
		if b.state.Kinds == nil {
			b.state.Kinds = make(map[string]int)
		}
	}
	return b, b.state.Next, nil
}

// save snapshots the sweep, if it has a path; durable.Save is atomic,
// so a kill between programs loses at most the program in flight.
func (b *Batch) save() error {
	if b.path == "" {
		return nil
	}
	return durable.Save(durable.OS, b.path, BatchKind, &b.state)
}

// program generates program i of the sweep.
func (b *Batch) program(i int) *Prog {
	return Generate(seed.Mix(b.state.BaseSeed, int64(i)), GenOptions{})
}

// Run continues the sweep until it completes, ctx is canceled or check
// fails. check checks program i of the sweep, p; an error from it is a
// fault that stops the sweep, not a divergence. The returned summary always covers the whole sweep so far
// (resumed prefix included); on cancellation it is the partial summary
// and err is ctx.Err(). progress, when set, sees every divergent result:
// first those of the resumed prefix — re-derived by re-checking their
// programs, since checking is deterministic — then each new one as it
// is found.
func (b *Batch) Run(ctx context.Context, check func(i int, p *Prog) (*Result, error), progress func(*Result)) (*Summary, error) {
	sum := &Summary{Programs: b.state.Next, Kinds: make(map[string]int)}
	for k, v := range b.state.Kinds {
		sum.Kinds[k] = v
	}
	diverged := func(res *Result) {
		sum.Divergences = append(sum.Divergences, res)
		if progress != nil {
			progress(res)
		}
	}
	for _, i := range b.state.Divergent {
		res, err := check(i, b.program(i))
		if err != nil {
			return sum, err
		}
		if res.Div != nil { // deterministic: always true
			diverged(res)
		}
	}
	for i := b.state.Next; i < b.state.N; i++ {
		if ctx.Err() != nil {
			if err := b.save(); err != nil {
				return sum, err
			}
			return sum, ctx.Err()
		}
		res, err := check(i, b.program(i))
		if err != nil {
			return sum, err
		}
		sum.Programs++
		sum.Kinds[res.Kind]++
		b.state.Kinds[res.Kind]++
		if res.Div != nil {
			b.state.Divergent = append(b.state.Divergent, i)
			diverged(res)
		}
		b.state.Next = i + 1
		if err := b.save(); err != nil {
			return sum, err
		}
	}
	return sum, nil
}
