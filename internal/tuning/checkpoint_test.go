package tuning

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"patty/internal/durable"
)

// rastrigin-ish deterministic objective with a unique optimum.
func bowl(a map[string]int) float64 {
	x, y := float64(a["x"]-7), float64(a["y"]-3)
	return x*x + 2*y*y + 5
}

func bowlDims() []Dim {
	return []Dim{{Key: "x", Min: 0, Max: 15}, {Key: "y", Min: 0, Max: 15}}
}

func bowlStart() map[string]int { return map[string]int{"x": 0, "y": 15} }

func TestTuneCtxCancelReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	obj := func(a map[string]int) float64 {
		evals++
		if evals == 5 {
			cancel()
		}
		return bowl(a)
	}
	res := LinearSearch{}.TuneCtx(ctx, bowlDims(), bowlStart(), obj, 500)
	if !res.Interrupted {
		t.Fatal("canceled search must report Interrupted")
	}
	if evals > 6 {
		t.Fatalf("search kept evaluating after cancel: %d evals", evals)
	}
	if res.Best == nil || math.IsInf(res.BestCost, 1) {
		t.Fatalf("canceled search must keep best-so-far, got %+v", res)
	}
}

func TestAllConfigsFaultedTyped(t *testing.T) {
	faulting := func(map[string]int) float64 { return math.Inf(1) }
	res := LinearSearch{}.Tune(bowlDims(), bowlStart(), faulting, 40)
	if !errors.Is(res.Err, ErrAllConfigsFaulted) {
		t.Fatalf("all-faulted search: Err = %v, want ErrAllConfigsFaulted", res.Err)
	}
	// A healthy ridge clears the condition (reachable one dimension at
	// a time, which is how LinearSearch walks).
	oneGood := func(a map[string]int) float64 {
		if a["x"] == 7 {
			return float64(1 + (a["y"]-3)*(a["y"]-3))
		}
		return math.Inf(1)
	}
	res = LinearSearch{}.Tune(bowlDims(), bowlStart(), oneGood, 200)
	if res.Err != nil {
		t.Fatalf("search with a healthy config must not error: %v", res.Err)
	}
	if res.Best["x"] != 7 || res.Best["y"] != 3 {
		t.Fatalf("best %v, want the healthy config", res.Best)
	}
}

// TestCheckpointResumeConvergesIdentically is the package-level half
// of the kill-and-restart contract: interrupt a checkpointed search
// mid-run, resume it from the snapshot, and require the identical best
// configuration (and no fewer explored configs) as an uninterrupted
// run — without re-measuring the completed prefix.
func TestCheckpointResumeConvergesIdentically(t *testing.T) {
	for _, tn := range []Tuner{LinearSearch{}, TabuSearch{}, RandomSearch{Seed: 7}, NelderMead{}} {
		t.Run(tn.Name(), func(t *testing.T) {
			meta := SearchMeta{Algo: tn.Name(), Budget: 120, Dims: bowlDims(), Start: bowlStart()}

			// Reference: uninterrupted, no checkpoint.
			ref := tn.Tune(meta.Dims, meta.Start, bowl, meta.Budget)

			// Interrupted: cancel after 9 fresh evaluations.
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ck1, resumed, err := NewCheckpointer(path, meta)
			if err != nil || resumed != 0 {
				t.Fatalf("fresh checkpointer: resumed=%d err=%v", resumed, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			fresh := 0
			counting := func(a map[string]int) float64 {
				fresh++
				if fresh == 9 {
					cancel()
				}
				return bowl(a)
			}
			half := tn.TuneCtx(ctx, meta.Dims, meta.Start, ck1.Wrap(counting), meta.Budget)
			if !half.Interrupted {
				t.Fatal("first leg should have been interrupted")
			}
			if err := ck1.Flush(); err != nil {
				t.Fatal(err)
			}

			// Resume: a brand-new checkpointer over the same file.
			ck2, resumed, err := NewCheckpointer(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			if resumed == 0 {
				t.Fatal("resume loaded no completed evaluations")
			}
			rerun := 0
			res := tn.Tune(meta.Dims, meta.Start, ck2.Wrap(func(a map[string]int) float64 {
				rerun++
				return bowl(a)
			}), meta.Budget)

			if AssignKey(res.Best) != AssignKey(ref.Best) || res.BestCost != ref.BestCost {
				t.Fatalf("resumed best %v (%.1f) != uninterrupted best %v (%.1f)",
					res.Best, res.BestCost, ref.Best, ref.BestCost)
			}
			if ck2.Explored() < ref.Evaluations {
				t.Fatalf("resumed run explored %d configs, uninterrupted run %d",
					ck2.Explored(), ref.Evaluations)
			}
			if rerun+resumed != ck2.Explored() {
				t.Fatalf("resume re-measured the prefix: %d fresh + %d resumed != %d explored",
					rerun, resumed, ck2.Explored())
			}
		})
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ck.Wrap(bowl)(bowlStart())
	other := meta
	other.Budget = 99
	if _, _, err := NewCheckpointer(path, other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("budget change: got %v, want ErrCheckpointMismatch", err)
	}
}

func TestCheckpointQuarantinePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ck.Quarantine = func() []string { return []string{"x=1;y=2;"} }
	ck.Wrap(bowl)(bowlStart())
	// Wrap journals a changed set with its evaluation, so a kill before
	// any Flush keeps it.
	for _, flush := range []bool{false, true} {
		if flush {
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		ck2, _, err := NewCheckpointer(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		if q := ck2.Quarantined(); len(q) != 1 || q[0] != "x=1;y=2;" {
			t.Fatalf("quarantine set lost (flushed %v): %v", flush, q)
		}
	}
}

// TestCheckpointCorruptSurfacesTyped: a byte flipped inside a complete
// journal frame that later frames follow is corruption, not a crash
// shape, and surfaces as the typed error; a torn tail (the file cut
// mid-frame) resumes instead.
func TestCheckpointCorruptSurfacesTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ck.Wrap(bowl)(bowlStart())
	ck.Wrap(bowl)(map[string]int{"x": 1, "y": 15})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(raw)
	flipped[bytes.Index(raw, []byte(`"algo"`))] ^= 0x01 // inside the meta frame
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewCheckpointer(path, meta); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("flipped journal: got %v, want durable.ErrCorrupt", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, resumed, err := NewCheckpointer(path, meta); err != nil || resumed != 1 {
		t.Fatalf("torn journal: resumed %d, err %v; want 1, nil", resumed, err)
	}
}

// TestJournalCrashShapes builds a multi-frame journal the way a
// search and the fleet write one — fresh evaluations through Wrap, a
// merged lie and its correction, a quarantine change — then:
//   - cuts it at every byte offset: each cut opens cleanly, the file
//     is truncated to its intact prefix (a cut meta frame is written
//     afresh), Resumed counts the distinct configurations of the intact
//     eval frames, the quarantine set is the last intact one, and the
//     resumed search reaches the uninterrupted best;
//   - flips every byte of every complete frame another frame follows:
//     each flip is durable.ErrCorrupt.
func TestJournalCrashShapes(t *testing.T) {
	dims := []Dim{{Key: "x", Min: 0, Max: 7}, {Key: "y", Min: 0, Max: 7}}
	start := map[string]int{"x": 0, "y": 7}
	meta := SearchMeta{Algo: "linear", Budget: 40, Dims: dims, Start: start}
	ref := LinearSearch{}.Tune(dims, start, bowl, meta.Budget)
	path := filepath.Join(t.TempDir(), "search.ckpt")
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	var quarantine []string
	ck.Quarantine = func() []string { return quarantine }
	ctx, cancel := context.WithCancel(context.Background())
	fresh := 0
	LinearSearch{}.TuneCtx(ctx, dims, start, ck.Wrap(func(a map[string]int) float64 {
		if fresh++; fresh == 5 {
			cancel()
		}
		return bowl(a)
	}), meta.Budget)
	// The lie is costlier than the truth on a point the sweep passes
	// over, so no cut between it and its repair changes the best.
	lie, merged := map[string]int{"x": 5, "y": 7}, map[string]int{"x": 7, "y": 7}
	ck.Record(lie, 1e9)
	ck.Record(merged, bowl(merged))
	quarantine = []string{"x=1;y=7;"}
	ck.Flush()
	ck.Correct(lie, bowl(lie))
	quarantine = nil
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	full, _, err := NewCheckpointer(path, meta)
	if recs := full.Records(); err != nil || len(recs) != 7 || AssignKey(recs[5].Assignment) != AssignKey(lie) || recs[5].Cost != bowl(lie) {
		t.Fatalf("replay must keep the repair in the lie's first-journaled place: %v, %v", recs, err)
	}

	// replay is the test's own reading of an image: its intact length,
	// distinct configurations and last quarantine set.
	replay := func(img []byte) (validLen, keys int, q []string) {
		seen := map[string]bool{}
		validLen, _ = durable.Decode(journalMagic, img, func(payload []byte) error {
			var f journalFrame
			json.Unmarshal(payload, &f)
			if f.Eval != nil {
				seen[AssignKey(f.Eval.Assignment)] = true
			}
			if f.Quarantined != nil {
				q = *f.Quarantined
			}
			return nil
		})
		return validLen, len(seen), q
	}
	ends := []int{0} // offsets just past each frame
	for cut := 1; cut <= len(raw); cut++ {
		if validLen, _, _ := replay(raw[:cut]); validLen == cut {
			ends = append(ends, cut)
		}
	}
	if _, keys, _ := replay(raw); keys != 7 || len(ends) != 12 {
		t.Fatalf("journal: %d configurations in %d frames, want 5 searched + 2 merged in 11", keys, len(ends)-1)
	}
	cutPath := filepath.Join(t.TempDir(), "cut.ckpt")
	for cut := 0; cut <= len(raw); cut++ {
		validLen, keys, wantQ := replay(raw[:cut])
		os.WriteFile(cutPath, raw[:cut], 0o644)
		ck2, resumed, err := NewCheckpointer(cutPath, meta)
		if err != nil || resumed != keys || !slices.Equal(ck2.Quarantined(), wantQ) {
			t.Fatalf("cut at %d: resumed %d, err %v; want %d, nil (quarantine %v, want %v)",
				cut, resumed, err, keys, ck2.Quarantined(), wantQ)
		}
		if got, _ := os.ReadFile(cutPath); !bytes.Equal(got, raw[:max(validLen, ends[1])]) {
			t.Fatalf("cut at %d: file after open is %d byte(s), want the intact prefix", cut, len(got))
		}
		res := LinearSearch{}.Tune(dims, start, ck2.Wrap(bowl), meta.Budget)
		if AssignKey(res.Best) != AssignKey(ref.Best) || res.BestCost != ref.BestCost {
			t.Fatalf("cut at %d: resumed best %v (%.1f), uninterrupted %v (%.1f)",
				cut, res.Best, res.BestCost, ref.Best, ref.BestCost)
		}
	}

	// No flipped length digit here reaches past the end of the file
	// (which the grammar would read as a torn tail), so every flip
	// before the last frame is corruption.
	for off := 0; off < ends[len(ends)-2]; off++ {
		for _, mask := range []byte{0x01, 0xFF} {
			mut := bytes.Clone(raw)
			mut[off] ^= mask
			os.WriteFile(cutPath, mut, 0o644)
			if _, _, err := NewCheckpointer(cutPath, meta); !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("flip %#02x at %d: got %v, want durable.ErrCorrupt", mask, off, err)
			}
		}
	}
}

// TestCheckpointCorrectOverwrites: Correct replaces an already-recorded
// cost in place (Record ignores known keys by design); the repaired
// value survives a flush/reload cycle and unknown keys fall through to
// Record semantics. This is the fleet coordinator's byzantine repair
// path: a quarantined worker's lied costs are overwritten with locally
// re-measured truth. A Checkpointer opened on "" — the fleet's record
// when no journal is asked for — behaves the same in memory (first-seen
// order, last-wins Correct, Lookup, Records, Explored, Quarantined) and
// creates no file.
func TestCheckpointCorrectOverwrites(t *testing.T) {
	meta := SearchMeta{Algo: "linear", Budget: 10, Dims: bowlDims(), Start: bowlStart()}
	for _, tc := range []struct {
		name    string
		journal bool
	}{{"journal", true}, {"memory", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := ""
			if tc.journal {
				path = filepath.Join(dir, "search.ckpt")
			}
			cwd, _ := os.ReadDir(".")
			ck, resumed, err := NewCheckpointer(path, meta)
			if err != nil || resumed != 0 {
				t.Fatalf("open: resumed %d, err %v", resumed, err)
			}
			a := map[string]int{"x": 1, "y": 2}
			b := map[string]int{"x": 3, "y": 4}
			ck.Record(a, 100) // the lie
			ck.Record(b, 50)

			// Record is merge-idempotent: it must NOT repair the lie.
			ck.Record(a, 42)
			if rec, _ := ck.Lookup(AssignKey(a)); rec.Cost != 100 {
				t.Fatalf("Record overwrote a recorded key: %+v", rec)
			}

			ck.Correct(a, 42) // the repair
			if rec, _ := ck.Lookup(AssignKey(a)); rec.Cost != 42 {
				t.Fatalf("Correct did not overwrite: %+v", rec)
			}
			// Correcting to a faulted cost stores the flag, not the Inf.
			ck.Correct(b, math.Inf(1))
			if rec, _ := ck.Lookup(AssignKey(b)); !rec.Faulted || rec.Cost != 0 {
				t.Fatalf("Correct to +Inf not stored as faulted: %+v", rec)
			}
			// Unknown key: Correct degrades to Record.
			c := map[string]int{"x": 5, "y": 6}
			ck.Correct(c, 7)
			if rec, ok := ck.Lookup(AssignKey(c)); !ok || rec.Cost != 7 {
				t.Fatalf("Correct on unknown key: %+v ok=%v", rec, ok)
			}
			// Wrap replays a recorded cost and measures only new keys.
			measured := 0
			obj := ck.Wrap(func(m map[string]int) float64 { measured++; return bowl(m) })
			if got := obj(a); got != 42 || measured != 0 {
				t.Fatalf("Wrap re-measured a recorded key: cost %v, %d measured", got, measured)
			}
			d := map[string]int{"x": 7, "y": 3}
			if got := obj(d); got != bowl(d) || measured != 1 {
				t.Fatalf("Wrap on a new key: cost %v, %d measured", got, measured)
			}
			ck.Quarantine = func() []string { return []string{AssignKey(b)} }
			if err := ck.Flush(); err != nil {
				t.Fatal(err)
			}
			check := func(ck *Checkpointer) {
				t.Helper()
				recs := ck.Records()
				if ck.Explored() != 4 || len(recs) != 4 {
					t.Fatalf("explored %d, records %v; want 4 (corrections must not duplicate entries)", ck.Explored(), recs)
				}
				for i, want := range []map[string]int{a, b, c, d} { // first-seen order
					if AssignKey(recs[i].Assignment) != AssignKey(want) {
						t.Fatalf("record %d is %v, want %v", i, recs[i].Assignment, want)
					}
				}
				if recs[0].Cost != 42 || !recs[1].Faulted {
					t.Fatalf("corrections lost: %+v", recs)
				}
				if q := ck.Quarantined(); len(q) != 1 || q[0] != AssignKey(b) {
					t.Fatalf("quarantine set %v, want [%s]", q, AssignKey(b))
				}
			}
			check(ck)

			if !tc.journal {
				if files, _ := os.ReadDir(dir); len(files) != 0 {
					t.Fatalf("in-memory record wrote %v", files)
				}
				if now, _ := os.ReadDir("."); len(now) != len(cwd) {
					t.Fatalf("in-memory record created a file: %d entries, was %d", len(now), len(cwd))
				}
				return
			}
			// The journal on disk holds the corrected values, once each.
			ck2, resumed, err := NewCheckpointer(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			if resumed != 4 || ck2.Resumed() != 4 {
				t.Fatalf("resumed %d evals, want 4", resumed)
			}
			check(ck2)
		})
	}
}
