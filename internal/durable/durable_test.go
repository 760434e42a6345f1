package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testMagic = "testrec "

type snap struct {
	Name  string         `json:"name"`
	Count int            `json:"count"`
	Costs map[string]int `json:"costs"`
}

func sample() snap {
	return snap{Name: "tune", Count: 42, Costs: map[string]int{"repl.oil=4;": 1700, "sequential=1;": 9000}}
}

// decodeAll decodes raw, collecting every payload apply saw.
func decodeAll(raw []byte) (got [][]byte, validLen int, err error) {
	validLen, err = Decode(testMagic, raw, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	return got, validLen, err
}

// TestDurableCorruptionEveryOffset is the one corruption sweep of the
// record format. A multi-frame log and a snapshot are bit-flipped at
// every byte (masks 0x01 and 0xFF), truncated at every length and
// followed by trailing garbage. Every result must be a typed error,
// the log must yield exactly the frames intact before the damage —
// never a partial or altered one — and validLen must never reach past
// the damage. The boundary shapes of the grammar ride along: an empty
// image, a header-only tail, a declared length beyond the data and an
// absurd length.
func TestDurableCorruptionEveryOffset(t *testing.T) {
	var img []byte
	var payloads [][]byte
	ends := []int{0} // ends[k]: offset just past frame k (1-based)
	for i := 1; i <= 4; i++ {
		p := []byte(fmt.Sprintf(`{"i":%d,"spec":"y z","cost":%d.5}`, i, i*17))
		img = AppendFrame(img, testMagic, p)
		payloads = append(payloads, p)
		ends = append(ends, len(img))
	}
	intact := func(off int) (k int) { // frames ending at or before off
		for k+1 < len(ends) && ends[k+1] <= off {
			k++
		}
		return k
	}
	check := func(t *testing.T, label string, raw []byte, want error, frames int) {
		t.Helper()
		got, validLen, err := decodeAll(raw)
		if !errors.Is(err, want) || (want == nil && err != nil) {
			t.Fatalf("%s: err %v, want %v", label, err, want)
		}
		if len(got) != frames || validLen != ends[frames] {
			t.Fatalf("%s: %d frame(s), validLen %d; want %d, %d", label, len(got), validLen, frames, ends[frames])
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("%s: frame %d is %q", label, i, p)
			}
		}
	}
	check(t, "clean log", img, nil, 4)

	t.Run("log/flip", func(t *testing.T) {
		for off := range img {
			for _, mask := range []byte{0x01, 0xFF} {
				mut := bytes.Clone(img)
				mut[off] ^= mask
				want := ErrCorrupt // unless the flip reads as a torn tail
				if _, _, err := decodeAll(mut); errors.Is(err, ErrTornTail) {
					want = ErrTornTail
				}
				check(t, fmt.Sprintf("flip %#02x at %d", mask, off), mut, want, intact(off))
			}
		}
	})
	t.Run("log/truncate", func(t *testing.T) {
		for cut := 0; cut <= len(img); cut++ {
			want := ErrTornTail
			if ends[intact(cut)] == cut {
				want = nil
			}
			check(t, fmt.Sprintf("cut at %d", cut), img[:cut], want, intact(cut))
		}
	})
	t.Run("log/append", func(t *testing.T) {
		for garbage, want := range map[string]error{
			"x": ErrCorrupt, "\n": ErrCorrupt, testMagic[:3]: ErrTornTail,
			"walrec 00000000 1\nx\n":                   ErrCorrupt, // another kind's frame
			testMagic + "0000000":                      ErrTornTail,
			testMagic + "00000000 1\nxy":               ErrCorrupt,
			testMagic + "00000000 -1\n\n":              ErrCorrupt,
			testMagic + "0000000g 1\nx\n":              ErrCorrupt,
			testMagic + "00000000 1 2\nx\n":            ErrCorrupt,
			testMagic + strings.Repeat("0", 40):        ErrCorrupt, // runaway header
			testMagic + strings.Repeat("0", 40) + "\n": ErrCorrupt, // oversized header
		} {
			check(t, fmt.Sprintf("garbage %q", garbage), append(bytes.Clone(img), garbage...), want, 4)
		}
	})
	t.Run("log/apply rejects", func(t *testing.T) {
		seen := 0
		validLen, err := Decode(testMagic, img, func([]byte) error {
			if seen++; seen == 3 {
				return errors.New("unknown record")
			}
			return nil
		})
		if !errors.Is(err, ErrCorrupt) || validLen != ends[2] {
			t.Fatalf("rejected frame 3: validLen %d, err %v; want %d, ErrCorrupt", validLen, err, ends[2])
		}
	})
	nl := bytes.IndexByte(img, '\n')
	first := img[:ends[1]]
	for name, c := range map[string]struct {
		raw    []byte
		want   error
		frames int
	}{
		"empty image":                 {nil, nil, 0},
		"empty slice":                 {[]byte{}, nil, 0},
		"header-only tail":            {append(bytes.Clone(first), img[:nl+1]...), ErrTornTail, 1},
		"bare header":                 {img[:nl+1], ErrTornTail, 0},
		"unterminated header":         {img[:nl], ErrTornTail, 0},
		"declared length beyond data": {append(bytes.Clone(first), first[:len(first)-2]...), ErrTornTail, 1},
		// All framing intact, bytes merely missing: a torn tail by the
		// grammar, and the decoder must not allocate or scan past raw.
		"absurd length": {[]byte(testMagic + "00000000 9999999999\nx"), ErrTornTail, 0},
	} {
		t.Run("edge/"+name, func(t *testing.T) { check(t, name, c.raw, c.want, c.frames) })
	}

	// The snapshot: exactly one clean frame loads; anything else is
	// ErrCorrupt and leaves the destination untouched.
	raw, err := encodeSnapshot("test-snap", sample())
	if err != nil {
		t.Fatal(err)
	}
	var mutants [][]byte
	for off := range raw {
		for _, mask := range []byte{0x01, 0xFF} {
			mut := bytes.Clone(raw)
			mut[off] ^= mask
			mutants = append(mutants, mut)
		}
	}
	for cut := range raw {
		mutants = append(mutants, raw[:cut:cut])
	}
	for _, garbage := range []string{"x", snapMagic[:4], string(raw)} {
		mutants = append(mutants, append(bytes.Clone(raw), garbage...))
	}
	t.Run("snapshot", func(t *testing.T) {
		for i, mut := range mutants {
			var out snap
			if err := decodeSnapshot(mut, "test-snap", &out); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mutant %d: %v, want ErrCorrupt", i, err)
			}
			if !reflect.DeepEqual(out, snap{}) {
				t.Fatalf("mutant %d: error reported but state loaded: %+v", i, out)
			}
		}
	})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := Save(OS, path, "test-snap", sample()); err != nil {
		t.Fatal(err)
	}
	var out snap
	if err := Load(OS, path, "test-snap", &out); err != nil || !reflect.DeepEqual(out, sample()) {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
}

func TestLoadMissingFileIsNotExist(t *testing.T) {
	var out snap
	err := Load(OS, filepath.Join(t.TempDir(), "nope.ckpt"), "test-snap", &out)
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist and not ErrCorrupt", err)
	}
}

func TestKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := Save(OS, path, "fuzz-sweep", sample()); err != nil {
		t.Fatal(err)
	}
	var out snap
	if err := Load(OS, path, "tuner-state", &out); !errors.Is(err, ErrKindMismatch) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind mismatch: %v, want ErrKindMismatch and not ErrCorrupt", err)
	}
}

// TestSaveIsAtomicOverwrite: a failed Save leaves the old snapshot and
// a successful one replaces it whole, with no temp file left behind.
func TestSaveIsAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	if err := Save(OS, path, "test-snap", sample()); err != nil {
		t.Fatal(err)
	}
	if err := Save(OS, path, "test-snap", func() {}); err == nil {
		t.Fatal("saving an unmarshalable value must fail")
	}
	var out snap
	if err := Load(OS, path, "test-snap", &out); err != nil {
		t.Fatalf("old snapshot damaged by failed save: %v", err)
	}
	next := sample()
	next.Count = 99
	if err := Save(OS, path, "test-snap", next); err != nil {
		t.Fatal(err)
	}
	if err := Load(OS, path, "test-snap", &out); err != nil || out.Count != 99 {
		t.Fatalf("overwrite: %+v, %v", out, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
