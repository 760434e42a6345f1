package core

import (
	"strings"
	"testing"

	"patty/internal/sched"
)

const src = `package p

func double(x int) int { return 2 * x }

func Map(a, b []int) {
	for i := 0; i < len(a); i++ {
		b[i] = double(a[i])
	}
}

func Scan(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1] + a[i]
	}
}
`

func TestPhaseStrings(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseModel:        "1. Model Creation",
		PhaseAnalysis:     "2. Pattern Analysis",
		PhaseArchitecture: "3. Tunable Architecture",
		PhaseTransform:    "4. Code Transform",
	} {
		if p.String() != want {
			t.Errorf("%d = %q, want %q", int(p), p.String(), want)
		}
	}
	if Phase(9).String() != "phase(9)" {
		t.Error("unknown phase string")
	}
}

func TestRunCollectsAllArtifacts(t *testing.T) {
	p := NewProcess(map[string]string{"m.go": src}, Options{})
	arts, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if arts.Model == nil || arts.Report == nil || arts.TuningConfig == nil {
		t.Fatal("missing artifacts")
	}
	if len(arts.Report.Candidates) != 1 || len(arts.Report.Rejected) != 1 {
		t.Fatalf("detection: %d candidates, %d rejections", len(arts.Report.Candidates), len(arts.Report.Rejected))
	}
	if len(arts.Outputs) != 1 || !strings.Contains(arts.Outputs[0].Code, "parrt.NewParallelFor") {
		t.Fatalf("outputs: %+v", arts.Outputs)
	}
	if !strings.Contains(arts.AnnotatedSources["m.go"], "//tadl:arch forall") {
		t.Fatal("annotated source missing directive")
	}
	if len(arts.UnitTests) != 1 {
		t.Fatalf("unit tests: %d", len(arts.UnitTests))
	}
	// Tuning keys carry the generated pattern name and a location.
	found := false
	for _, e := range arts.TuningConfig.Entries {
		if strings.HasPrefix(e.Key, "parallelfor.Map.") && strings.Contains(e.Key, "workers") {
			found = true
			if e.Location == "" {
				t.Error("tuning entry missing source location")
			}
		}
	}
	if !found {
		t.Fatalf("tuning entries: %+v", arts.TuningConfig.Entries)
	}
}

func TestZeroCandidateProgramCompletes(t *testing.T) {
	p := NewProcess(map[string]string{"m.go": `package p
func Scan(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1] + a[i]
	}
}
`}, Options{})
	arts, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts.Outputs) != 0 || len(arts.UnitTests) != 0 {
		t.Fatalf("expected empty artifacts, got %+v", arts)
	}
}

// TestValidateNeedsTransformNotCandidates: Validate refuses a process
// TransformCode never ran on, but a run that transformed zero
// candidates validates to an empty result.
func TestValidateNeedsTransformNotCandidates(t *testing.T) {
	const scanOnly = `package p
func Scan(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1] + a[i]
	}
}
`
	for _, tc := range []struct {
		name    string
		run     bool
		wantErr bool
	}{
		{"zero candidates", true, false},
		{"untransformed", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProcess(map[string]string{"m.go": scanOnly}, Options{})
			if tc.run {
				if _, err := p.Run(); err != nil {
					t.Fatal(err)
				}
			}
			results, err := p.Validate(sched.Options{})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if len(results) != 0 {
				t.Fatalf("results = %+v, want none", results)
			}
		})
	}
}

func TestValidateOnProcess(t *testing.T) {
	p := NewProcess(map[string]string{"m.go": src}, Options{})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	results, err := p.Validate(sched.Options{PreemptionBound: 2, MaxSchedules: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Result.Buggy() {
		t.Fatalf("validation: %+v", results)
	}
}

func TestTransformAnnotatedRequiresDirectives(t *testing.T) {
	p := NewProcess(map[string]string{"m.go": src}, Options{})
	if _, err := p.TransformAnnotated(); err == nil {
		t.Fatal("expected error without //tadl: directives")
	}
}
