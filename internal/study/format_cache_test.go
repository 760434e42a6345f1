package study

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"patty/internal/durable"
)

func TestMeasuredOutcomeCached(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcome.ckpt")
	first, resumed, err := MeasuredOutcomeCached(path)
	if err != nil || resumed {
		t.Fatalf("first call: resumed=%v err=%v", resumed, err)
	}
	second, resumed, err := MeasuredOutcomeCached(path)
	if err != nil || !resumed {
		t.Fatalf("second call: resumed=%v err=%v", resumed, err)
	}
	if first != second {
		t.Fatalf("cached outcome %+v != measured %+v", second, first)
	}
	// A corrupt snapshot heals: re-measure and rewrite.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var probe ToolOutcome
	if err := durable.Load(durable.OS, path, OutcomeKind, &probe); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("sanity: snapshot should be corrupt, got %v", err)
	}
	healed, resumed, err := MeasuredOutcomeCached(path)
	if err != nil || resumed || healed != first {
		t.Fatalf("corrupt snapshot must re-measure: resumed=%v err=%v out=%+v", resumed, err, healed)
	}
	if _, resumed, err = MeasuredOutcomeCached(path); err != nil || !resumed {
		t.Fatalf("healed snapshot must serve from cache: resumed=%v err=%v", resumed, err)
	}
}
