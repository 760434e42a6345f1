package obs

import (
	"reflect"
	"testing"
)

// A snapshot with only hostile-network / byzantine / peer signal must
// still register as fleet signal, and every family must land in the
// right FleetHealth field.
func TestAnalyzeFleetHostileNetwork(t *testing.T) {
	const liarURL, benchedURL = "http://127.0.0.1:4713", "http://127.0.0.1:9000"
	s := Snapshot{
		Counters: map[string]int64{
			"fleet.byzantine.crosschecked": 7,
			"fleet.byzantine.divergent":    2,
			"fleet.byzantine.quarantined":  1,
			"fleet.byzantine.reverified":   4,
			"fleet.byzantine.corrected":    3,
		},
		CounterFamilies: map[string]map[string]int64{
			"fleet.net.faults":        {"drop": 3, "timeout": 2},
			"fleet.net.injected":      {"corrupt": 5},
			"fleet.peer.dispatched":   {liarURL: 9, benchedURL: 4},
			"fleet.peer.failed":       {liarURL: 1},
			"fleet.peer.evals":        {liarURL: 40},
			"fleet.peer.crosschecked": {liarURL: 6},
			"fleet.peer.divergent":    {liarURL: 2},
		},
		GaugeFamilies: map[string]map[string]int64{
			"fleet.peer.quarantined": {liarURL: 1},
			"fleet.peer.benched":     {benchedURL: 1},
		},
	}
	h, ok := AnalyzeFleet(s)
	if !ok {
		t.Fatal("AnalyzeFleet: hostile-network signal not recognized as fleet signal")
	}
	wantNet := map[string]int64{"drop": 3, "timeout": 2, "injected.corrupt": 5}
	if !reflect.DeepEqual(h.NetFaults, wantNet) {
		t.Fatalf("NetFaults = %v, want %v", h.NetFaults, wantNet)
	}
	if h.ByzCrossChecked != 7 || h.ByzDivergent != 2 || h.ByzQuarantined != 1 ||
		h.ByzReverified != 4 || h.ByzCorrected != 3 {
		t.Fatalf("byzantine ledger = %+v", h)
	}
	if len(h.Peers) != 2 {
		t.Fatalf("Peers = %v, want 2 rows", h.Peers)
	}
	// Sorted by name; a peer is named by its worker URL as given.
	liar := h.Peers[0]
	if liar.Name != liarURL {
		t.Fatalf("Peers[0].Name = %q", liar.Name)
	}
	if liar.Dispatched != 9 || liar.Failed != 1 || liar.Evals != 40 ||
		liar.CrossChecked != 6 || liar.Divergent != 2 || !liar.Quarantined || liar.Benched {
		t.Fatalf("Peers[0] = %+v", liar)
	}
	benched := h.Peers[1]
	if benched.Name != benchedURL || benched.Dispatched != 4 ||
		!benched.Benched || benched.Quarantined {
		t.Fatalf("Peers[1] = %+v", benched)
	}
	if !h.Degraded() {
		t.Fatal("a quarantined worker must read as degraded")
	}
}

func TestAnalyzeFleetNoSignal(t *testing.T) {
	if _, ok := AnalyzeFleet(Snapshot{Counters: map[string]int64{"patterns.total": 3}}); ok {
		t.Fatal("non-fleet snapshot must not report fleet signal")
	}
	h, _ := AnalyzeFleet(Snapshot{})
	if h.Degraded() {
		t.Fatal("empty digest must not be degraded")
	}
}
