package difftest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/durable"
)

func batchOpts() Options {
	return Options{Configs: 2}
}

// checkWith checks every program of a sweep with opt.
func checkWith(opt Options) func(int, *Prog) (*Result, error) {
	return func(_ int, p *Prog) (*Result, error) { return Check(p, opt), nil }
}

// sweep runs an unsaved sweep of n programs from baseSeed, logging each
// divergence.
func sweep(t *testing.T, baseSeed int64, n int, opt Options) *Summary {
	t.Helper()
	b, _, err := NewBatch("", baseSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := b.Run(context.Background(), checkWith(opt), func(res *Result) { t.Log(res.Div) })
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// cancelAfterErrs is a context whose Err() flips to Canceled after k
// nil answers — a deterministic mid-sweep interrupt without timing.
type cancelAfterErrs struct {
	context.Context
	k, calls int
}

func (c *cancelAfterErrs) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

func TestBatchResumeMatchesUninterrupted(t *testing.T) {
	const baseSeed, n = 41, 12
	opt := batchOpts()

	ref := sweep(t, baseSeed, n, opt)

	// Leg 1: cancel midway through the sweep.
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b1, resumed, err := NewBatch(path, baseSeed, n)
	if err != nil || resumed != 0 {
		t.Fatalf("fresh batch: resumed=%d err=%v", resumed, err)
	}
	ctx := &cancelAfterErrs{Context: context.Background(), k: 4}
	partial, err := b1.Run(ctx, checkWith(opt), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted leg: err = %v", err)
	}
	if partial.Programs == 0 || partial.Programs >= n {
		t.Fatalf("interrupted leg checked %d of %d", partial.Programs, n)
	}

	// Leg 2: resume from the snapshot and finish.
	b2, resumed, err := NewBatch(path, baseSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	if resumed == 0 {
		t.Fatal("resume loaded no progress")
	}
	sum, err := b2.Run(context.Background(), checkWith(opt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Programs != ref.Programs {
		t.Fatalf("resumed sweep covered %d programs, uninterrupted %d", sum.Programs, ref.Programs)
	}
	if len(sum.Divergences) != len(ref.Divergences) {
		t.Fatalf("resumed sweep found %d divergences, uninterrupted %d",
			len(sum.Divergences), len(ref.Divergences))
	}
	for k, v := range ref.Kinds {
		if sum.Kinds[k] != v {
			t.Fatalf("kind %q: resumed %d, uninterrupted %d", k, sum.Kinds[k], v)
		}
	}
}

func TestBatchMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b, _, err := NewBatch(path, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), checkWith(batchOpts()), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewBatch(path, 8, 5); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("seed change: got %v, want ErrBatchMismatch", err)
	}
	if _, _, err := NewBatch(path, 7, 6); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("count change: got %v, want ErrBatchMismatch", err)
	}
	if _, resumed, err := NewBatch(path, 7, 5); err != nil || resumed != 5 {
		t.Fatalf("same sweep: resumed=%d err=%v", resumed, err)
	}
}

func TestBatchCorruptSurfacesTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b, _, err := NewBatch(path, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), checkWith(batchOpts()), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewBatch(path, 7, 3); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want durable.ErrCorrupt", err)
	}
}

// TestBatchCancelImmediately: a sweep without a path checks nothing
// under a canceled context and writes no snapshot.
func TestBatchCancelImmediately(t *testing.T) {
	b, _, err := NewBatch("", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := b.Run(ctx, checkWith(batchOpts()), nil)
	if !errors.Is(err, context.Canceled) || sum.Programs != 0 {
		t.Fatalf("pre-canceled sweep: programs=%d err=%v", sum.Programs, err)
	}
}

// TestBatchCheckFaultStops: an error from the check stops the sweep
// at that program, and a resumed sweep re-reports recorded divergences
// through progress before checking anything new.
func TestBatchCheckFaultStops(t *testing.T) {
	b, _, err := NewBatch("", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	sum, err := b.Run(context.Background(), func(i int, p *Prog) (*Result, error) {
		if i == 3 {
			return nil, boom
		}
		return &Result{Seed: p.Seed, Kind: "rejected"}, nil
	}, nil)
	if !errors.Is(err, boom) || sum.Programs != 3 {
		t.Fatalf("faulted sweep: programs=%d err=%v", sum.Programs, err)
	}

	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	diverge := func(i int, p *Prog) (*Result, error) {
		res := &Result{Seed: p.Seed, Kind: "pipeline"}
		if i%2 == 1 {
			res.Div = &Divergence{Seed: p.Seed, Kind: "test"}
		}
		return res, nil
	}
	b1, _, err := NewBatch(path, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Run(&cancelAfterErrs{Context: context.Background(), k: 4}, diverge, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted leg: %v", err)
	}
	b2, resumed, err := NewBatch(path, 9, 6)
	if err != nil || resumed != 4 {
		t.Fatalf("resume: resumed=%d err=%v", resumed, err)
	}
	var seen []int64
	sum, err = b2.Run(context.Background(), diverge, func(res *Result) { seen = append(seen, res.Seed) })
	if err != nil || sum.Programs != 6 || len(sum.Divergences) != 3 {
		t.Fatalf("resumed sweep: programs=%d divergences=%d err=%v", sum.Programs, len(sum.Divergences), err)
	}
	want := []int64{b2.program(1).Seed, b2.program(3).Seed, b2.program(5).Seed}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("progress saw seeds %v, want %v", seen, want)
	}
}
