package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"patty/internal/durable"
	"patty/internal/durable/durabletest"
)

const logMagic = "logrec "

// batches is a multi-batch append sequence: batch i holds sizes[i]
// frames.
func batches(sizes ...int) [][][]byte {
	var out [][][]byte
	for i, n := range sizes {
		var b [][]byte
		for j := 0; j < n; j++ {
			b = append(b, []byte(fmt.Sprintf(`{"batch":%d,"frame":%d}`, i, j)))
		}
		out = append(out, b)
	}
	return out
}

func frames(payloads [][]byte) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = durable.AppendFrame(buf, logMagic, p)
	}
	return buf
}

// reopen opens the log at path, collecting what it replays.
func reopen(t *testing.T, fsys durable.FS, path string) (*durable.Log, [][]byte, error) {
	t.Helper()
	var got [][]byte
	l, _, err := durable.OpenLog(fsys, path, logMagic, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	return l, got, err
}

// TestLogCrashEveryBoundary crashes a multi-batch append sequence at
// every write and fsync boundary, keeping none, some or all of the
// unsynced bytes. The reopened log replays exactly the acknowledged
// batches plus at most a prefix of the one in flight, its file holds
// exactly the replayed frames (the torn tail is cut), and it appends
// again.
func TestLogCrashEveryBoundary(t *testing.T) {
	seq := batches(1, 3, 2, 1)
	for _, cp := range durabletest.CrashPoints(len(seq)) {
		t.Run(cp.String(), func(t *testing.T) {
			fsys := cp.Arm()
			fsys.MkdirAll("d", 0o755)
			l, _, err := reopen(t, fsys, "d/x.log")
			if err != nil {
				t.Fatal(err)
			}
			var acked [][]byte
			var inFlight [][]byte
			for _, b := range seq {
				if err := l.Append(frames(b)); err != nil {
					inFlight = b
					break
				}
				acked = append(acked, b...)
			}
			after := fsys.Crash(cp.Keep)
			l2, got, err := reopen(t, after, "d/x.log")
			if err != nil && !errors.Is(err, durable.ErrTornTail) {
				t.Fatal(err)
			}
			if len(got) < len(acked) || !slices.EqualFunc(got[:len(acked)], acked, bytes.Equal) {
				t.Fatalf("replayed %q, want the acknowledged %q first", got, acked)
			}
			if extra := got[len(acked):]; len(extra) > len(inFlight) || !slices.EqualFunc(extra, inFlight[:len(extra)], bytes.Equal) {
				t.Fatalf("replayed %q past the acknowledged frames; in flight was %q", extra, inFlight)
			}
			if raw, _ := after.ReadFile("d/x.log"); !bytes.Equal(raw, frames(got)) {
				t.Fatalf("file after reopen is %q, want exactly the replayed frames", raw)
			}
			next := []byte(`{"after":"crash"}`)
			if err := l2.Append(frames([][]byte{next})); err != nil {
				t.Fatal(err)
			}
			if _, again, _ := reopen(t, after, "d/x.log"); len(again) != len(got)+1 || !bytes.Equal(again[len(got)], next) {
				t.Fatalf("append after recovery: replayed %q", again)
			}
		})
	}
}

// TestLogFailedAppendRefusesLater is the one rule for a failed append:
// after a write fails partway or an fsync fails, every later append is
// refused until the log is reopened, the reopened log recovers exactly
// the appends that returned nil, and each append costs one write and
// one fsync.
func TestLogFailedAppendRefusesLater(t *testing.T) {
	for _, tc := range []struct {
		name                string
		failWrite, failSync int
	}{
		{"write fails partway", 3, 0},
		{"fsync fails", 0, 3},
		{"first write fails", 1, 0},
		{"no failure", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := durabletest.New()
			fsys.FailWrite, fsys.FailSync = tc.failWrite, tc.failSync
			fsys.MkdirAll("d", 0o755)
			l, _, err := reopen(t, fsys, "d/x.log")
			if err != nil {
				t.Fatal(err)
			}
			var acked [][]byte
			failed := 0
			for i := 0; i < 6; i++ {
				p := []byte(fmt.Sprintf(`{"record":%d}`, i))
				if err := l.Append(frames([][]byte{p})); err != nil {
					failed++
					continue
				}
				if failed > 0 {
					t.Fatalf("append %d acknowledged after a failed one", i)
				}
				acked = append(acked, p)
			}
			wantAcked := 6
			if k := tc.failWrite + tc.failSync; k > 0 {
				wantAcked = k - 1
			}
			if len(acked) != wantAcked {
				t.Fatalf("%d append(s) acknowledged, want %d", len(acked), wantAcked)
			}
			// One write and one fsync per append that reached the file.
			wantWrites, wantSyncs := len(acked)+min(failed, 1), len(acked)+min(tc.failSync, 1)
			if writes, syncs, dirSyncs := fsys.Counts(); writes != wantWrites || syncs != wantSyncs || dirSyncs != 1 {
				t.Fatalf("%d write(s), %d fsync(s), %d directory fsync(s); want %d, %d, 1", writes, syncs, dirSyncs, wantWrites, wantSyncs)
			}
			if err := l.Close(); (err != nil) != (failed > 0) {
				t.Fatalf("Close after %d failed append(s): %v", failed, err)
			}
			if err := l.Append(frames(acked[:0])); err == nil {
				t.Fatal("a closed log accepted an append")
			}
			_, got, err := reopen(t, fsys, "d/x.log")
			if err != nil && !errors.Is(err, durable.ErrTornTail) {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, acked, bytes.Equal) {
				t.Fatalf("recovered %q, want exactly the acknowledged %q", got, acked)
			}
		})
	}
}

// TestLogCorruptLeftToCaller: damage inside the file is reported with
// the log and nothing is cut; the caller's Truncate to Size()-tail
// keeps the intact prefix.
func TestLogCorruptLeftToCaller(t *testing.T) {
	img := frames(batches(3)[0])
	mut := bytes.Clone(img)
	mut[len(img)/2] ^= 0xFF
	fsys := durabletest.New()
	fsys.WriteFile("d/x.log", mut)
	l, tail, err := durable.OpenLog(fsys, "d/x.log", logMagic, func([]byte) error { return nil })
	if !errors.Is(err, durable.ErrCorrupt) || l == nil || l.Size() != int64(len(mut)) {
		t.Fatalf("OpenLog: %v, size %d; want ErrCorrupt and the file untouched", err, l.Size())
	}
	if raw, _ := fsys.ReadFile("d/x.log"); !bytes.Equal(raw, mut) {
		t.Fatal("OpenLog cut a corrupt log")
	}
	if err := l.Truncate(l.Size() - tail); err != nil {
		t.Fatal(err)
	}
	_, got, err := reopen(t, fsys, "d/x.log")
	if err != nil || len(got) != 1 {
		t.Fatalf("after the caller's cut: %d frame(s), %v; want the 1 intact frame", len(got), err)
	}
}
