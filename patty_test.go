package patty

import (
	"strings"
	"testing"

	"patty/internal/interp"
	"patty/internal/pattern"
	"patty/internal/sched"
)

const videoExample = `package p

type Image struct {
	ID  int
	Lum int
}

type Stream struct {
	Images []Image
}

func (s *Stream) Add(img Image) { s.Images = append(s.Images, img) }

func mix(x, rounds int) int {
	if rounds == 0 {
		if x < 0 {
			return -x % 65536
		}
		return x % 65536
	}
	return mix((x*31+7)%1000003, rounds-1)
}

func crop(img Image) Image  { return Image{ID: img.ID, Lum: mix(img.Lum, 12)} }
func histo(img Image) Image { return Image{ID: img.ID, Lum: mix(img.Lum, 14)} }
func oil(img Image) Image   { return Image{ID: img.ID, Lum: mix(img.Lum, 90)} }

func Process(in []Image, out *Stream) {
	for _, img := range in {
		c := crop(img)
		h := histo(img)
		o := oil(img)
		r := Image{ID: img.ID, Lum: c.Lum + h.Lum + o.Lum}
		out.Add(r)
	}
}
`

func videoWorkload() *Workload {
	return &Workload{
		Entry: "Process",
		Args: func(m *interp.Machine) []interp.Value {
			imgs := make([]interp.Value, 12)
			for i := range imgs {
				imgs[i] = m.NewStructValue("Image", int64(i), int64(i*37+5))
			}
			return []interp.Value{
				m.NewSlice(imgs...),
				m.NewStructValue("Stream", m.NewSlice()),
			}
		},
	}
}

func TestParallelizeEndToEnd(t *testing.T) {
	arts, err := Parallelize(map[string]string{"video.go": videoExample}, videoWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts.Report.Candidates) != 1 {
		t.Fatalf("candidates = %+v", arts.Report.Candidates)
	}
	c := arts.Report.Candidates[0]
	if c.Kind != pattern.PipelineKind || c.Fn != "Process" {
		t.Fatalf("candidate = %+v", c)
	}
	// Fig. 3b artifact: annotated source.
	ann := arts.AnnotatedSources["video.go"]
	if !strings.Contains(ann, "//tadl:arch pipeline") {
		t.Fatalf("missing TADL annotation:\n%s", ann)
	}
	// The hot oil stage must carry the paper's replication marker.
	if !strings.Contains(ann, "C+") {
		t.Fatalf("expected C+ (hot oil stage) in arch: %s", c.Arch)
	}
	// Fig. 3d artifact: generated code.
	if len(arts.Outputs) != 1 || !strings.Contains(arts.Outputs[0].Code, "parrt.NewPipeline") {
		t.Fatalf("outputs = %+v", arts.Outputs)
	}
	// Fig. 3c artifact: tuning configuration with the PLTP parameters.
	keys := map[string]bool{}
	for _, e := range arts.TuningConfig.Entries {
		keys[e.Key] = true
	}
	found := false
	for k := range keys {
		if strings.Contains(k, "replication") {
			found = true
		}
	}
	if !found {
		t.Fatalf("tuning config lacks replication parameters: %+v", arts.TuningConfig.Entries)
	}
	// Generated unit tests exist.
	if len(arts.UnitTests) != 1 {
		t.Fatalf("unit tests = %d", len(arts.UnitTests))
	}
}

func TestValidateRunsUnitTests(t *testing.T) {
	p := NewProcess(map[string]string{"video.go": videoExample}, Options{Workload: videoWorkload()})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	results, err := Validate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Result.Buggy() {
		t.Fatalf("correct pipeline must validate clean: %+v", results[0].Result)
	}
	if results[0].Result.Schedules == 0 {
		t.Fatal("no schedules explored")
	}
}

func TestDetectOnly(t *testing.T) {
	rep, err := Detect(map[string]string{"video.go": videoExample}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 {
		t.Fatalf("candidates = %+v", rep.Candidates)
	}
}

func TestTransformAnnotatedMode(t *testing.T) {
	src := `package p

func double(x int) int { return 2 * x }

func Apply(a, b []int) {
	//tadl:arch forall forall(A)
	for i := 0; i < len(a); i++ {
		//tadl:stage A
		b[i] = double(a[i])
	}
}
`
	arts, err := TransformAnnotated(map[string]string{"apply.go": src})
	if err != nil {
		t.Fatal(err)
	}
	if len(arts.Outputs) != 1 || !strings.Contains(arts.Outputs[0].Code, "parrt.NewParallelFor") {
		t.Fatalf("outputs = %+v", arts.Outputs)
	}
}

func TestProcessPhaseOrderEnforced(t *testing.T) {
	p := NewProcess(map[string]string{"a.go": "package p\nfunc F() {}\n"}, Options{})
	if err := p.AnalyzePatterns(); err == nil {
		t.Fatal("AnalyzePatterns before CreateModel must fail")
	}
	if err := p.DeriveArchitecture(); err == nil {
		t.Fatal("DeriveArchitecture before AnalyzePatterns must fail")
	}
	if err := p.TransformCode(); err == nil {
		t.Fatal("TransformCode before DeriveArchitecture must fail")
	}
	if _, err := p.Validate(sched.Options{}); err == nil {
		t.Fatal("Validate before TransformCode must fail")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := Parallelize(map[string]string{"bad.go": "not go"}, nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestProcessLogging(t *testing.T) {
	var lines []string
	p := NewProcess(map[string]string{"video.go": videoExample},
		Options{Log: func(s string) { lines = append(lines, s) }})
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, phase := range []string{"1. Model Creation", "2. Pattern Analysis", "3. Tunable Architecture", "4. Code Transform"} {
		if !strings.Contains(joined, phase) {
			t.Errorf("log missing %q:\n%s", phase, joined)
		}
	}
}

// TestParallelizeIllFormedBuiltinCall: a workload that reaches a
// builtin call without arguments fails Parallelize with the
// interpreter's runtime error; it must not escape as a Go panic.
func TestParallelizeIllFormedBuiltinCall(t *testing.T) {
	src := `package p
func Size(xs []int) int {
	for i := range xs {
		xs[i] = i
	}
	return len()
}`
	_, err := Parallelize(map[string]string{"size.go": src}, &Workload{
		Entry: "Size",
		Args: func(m *interp.Machine) []interp.Value {
			return []interp.Value{m.NewSlice(int64(1), int64(2))}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "not enough arguments in call to len") {
		t.Fatalf("Parallelize error = %v, want the len arity failure", err)
	}
}
