// Package core orchestrates Patty's pattern-based parallelization
// process (paper Fig. 1): Model Creation → Pattern Analysis →
// Tunable Architecture → Code Transform, plus the correctness
// (parallel unit tests) and performance (tuning configuration)
// artifacts each run produces.
//
// The four operation modes of paper §3 map onto this package:
//
//  1. Automatic parallelization       — Process.Run()
//  2. Architecture-based programming  — tadl directives in the input,
//     Process.TransformAnnotated()
//  3. Library-based programming       — import parrt directly
//  4. Program validation              — Process.Validate / tuning
package core

import (
	"fmt"
	"runtime"
	"sort"

	"patty/internal/model"
	"patty/internal/parrt"
	"patty/internal/pattern"
	"patty/internal/ptest"
	"patty/internal/sched"
	"patty/internal/source"
	"patty/internal/tadl"
	"patty/internal/transform"
	"patty/internal/tuning"
)

// Phase enumerates the process-model stages for progress reporting
// (the IDE plugin's process chart, R1).
type Phase int

const (
	// PhaseModel is "1. Model Creation".
	PhaseModel Phase = iota
	// PhaseAnalysis is "2. Pattern Analysis".
	PhaseAnalysis
	// PhaseArchitecture is "3. Tunable Architecture".
	PhaseArchitecture
	// PhaseTransform is "4. Code Transform".
	PhaseTransform
)

// String names the phase like the paper's process chart.
func (p Phase) String() string {
	switch p {
	case PhaseModel:
		return "1. Model Creation"
	case PhaseAnalysis:
		return "2. Pattern Analysis"
	case PhaseArchitecture:
		return "3. Tunable Architecture"
	case PhaseTransform:
		return "4. Code Transform"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Options configures a process run.
type Options struct {
	// Detection forwards pattern-detection options.
	Detection pattern.Options
	// Workload enables the dynamic half of the semantic model.
	Workload *model.Workload
	// Test sizes the generated parallel unit tests.
	Test ptest.Options
	// Log receives progress lines (nil: silent).
	Log func(string)
}

// Artifacts collects everything a run produces — the per-phase outputs
// the paper's R2 requirement makes visible to the engineer.
type Artifacts struct {
	// Model is the semantic model (phase 1).
	Model *model.Model
	// Report is the detection outcome (phase 2).
	Report *pattern.Report
	// Annotations are the TADL architecture descriptions (phase 3).
	Annotations []tadl.Annotation
	// AnnotatedSources holds each input file with TADL directives
	// inserted (paper Fig. 3b).
	AnnotatedSources map[string]string
	// Outputs holds the generated parallel code, one per candidate
	// (paper Fig. 3d).
	Outputs []*transform.Output
	// TuningConfig is the tuning configuration file content (paper
	// Fig. 3c): every suggested parameter with its initial value.
	TuningConfig *tuning.Config
	// UnitTests are the generated parallel unit tests.
	UnitTests []*ptest.UnitTest
}

// Process drives one parallelization run over a set of sources.
type Process struct {
	Sources map[string]string
	Opt     Options

	prog        *source.Program
	arts        Artifacts
	transformed bool // TransformCode completed (possibly with zero candidates)
}

// NewProcess prepares a run over filename→source-text pairs.
func NewProcess(sources map[string]string, opt Options) *Process {
	return &Process{Sources: sources, Opt: opt}
}

func (p *Process) log(format string, args ...any) {
	if p.Opt.Log != nil {
		p.Opt.Log(fmt.Sprintf(format, args...))
	}
}

// Run executes all phases (operation mode 1, automatic
// parallelization) and returns the collected artifacts.
func (p *Process) Run() (*Artifacts, error) {
	if err := p.CreateModel(); err != nil {
		return nil, err
	}
	if err := p.AnalyzePatterns(); err != nil {
		return nil, err
	}
	if err := p.DeriveArchitecture(); err != nil {
		return nil, err
	}
	if err := p.TransformCode(); err != nil {
		return nil, err
	}
	return &p.arts, nil
}

// CreateModel runs phase 1: parse + static analyses (+ dynamic
// enrichment when a workload is configured).
func (p *Process) CreateModel() error {
	p.log("%s", PhaseModel)
	prog, err := source.ParseSources(p.Sources)
	if err != nil {
		return err
	}
	p.prog = prog
	p.arts.Model = model.Build(prog)
	if p.Opt.Workload != nil {
		p.log("  dynamic analysis: executing sample workload")
		if err := p.arts.Model.EnrichDynamic(*p.Opt.Workload); err != nil {
			return err
		}
	}
	return nil
}

// AnalyzePatterns runs phase 2: source-pattern detection.
func (p *Process) AnalyzePatterns() error {
	if p.arts.Model == nil {
		return fmt.Errorf("core: CreateModel must run first")
	}
	p.log("%s", PhaseAnalysis)
	p.arts.Report = pattern.Detect(p.arts.Model, p.Opt.Detection)
	p.log("  %d candidate(s), %d rejection(s)",
		len(p.arts.Report.Candidates), len(p.arts.Report.Rejected))
	return nil
}

// DeriveArchitecture runs phase 3: emit TADL annotations and the
// annotated sources.
func (p *Process) DeriveArchitecture() error {
	if p.arts.Report == nil {
		return fmt.Errorf("core: AnalyzePatterns must run first")
	}
	p.log("%s", PhaseArchitecture)
	p.arts.Annotations = nil
	byFile := make(map[string][]tadl.Annotation)
	for _, c := range p.arts.Report.Candidates {
		p.arts.Annotations = append(p.arts.Annotations, c.Annotation)
		fn := p.prog.Func(c.Fn)
		file := p.prog.Position(fn.File.Pos()).Filename
		byFile[file] = append(byFile[file], c.Annotation)
	}
	p.arts.AnnotatedSources = make(map[string]string, len(p.Sources))
	names := make([]string, 0, len(p.Sources))
	for name := range p.Sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		annotated, err := tadl.Annotate(p.prog, p.Sources[name], byFile[name])
		if err != nil {
			return err
		}
		p.arts.AnnotatedSources[name] = annotated
	}
	return nil
}

// TransformCode runs phase 4: generate parallel code, the tuning
// configuration and the parallel unit tests.
func (p *Process) TransformCode() error {
	if p.arts.AnnotatedSources == nil {
		return fmt.Errorf("core: DeriveArchitecture must run first")
	}
	p.log("%s", PhaseTransform)
	tr := transform.New(p.prog, p.Sources)
	ps := parrt.NewParams()
	p.arts.Outputs = nil
	for i, ann := range p.arts.Annotations {
		out, err := tr.Function(ann)
		if err != nil {
			// Transformation limits (unsupported loop shapes) are
			// reported, not fatal: the annotation itself remains
			// usable for manual transformation.
			p.log("  skipping %s: %v", ann.Fn, err)
			continue
		}
		p.arts.Outputs = append(p.arts.Outputs, out)
		p.registerSuggestedParams(ps, p.arts.Report.Candidates[i], out)
	}
	p.arts.TuningConfig = tuning.FromParams("patty", ps)

	uts, err := ptest.GenerateAll(p.arts.Model, p.arts.Report, p.Opt.Test)
	if err != nil {
		return err
	}
	p.arts.UnitTests = uts
	p.transformed = true
	p.log("  %d generated file(s), %d tuning parameter(s), %d parallel unit test(s)",
		len(p.arts.Outputs), len(p.arts.TuningConfig.Entries), len(uts))
	return nil
}

// registerSuggestedParams seeds the tuning configuration with the
// detector's PLTP suggestions under the generated pattern's key
// prefix.
func (p *Process) registerSuggestedParams(ps *parrt.Params, c pattern.Candidate, out *transform.Output) {
	prefix := map[string]string{
		"pipeline": "pipeline.",
		"forall":   "parallelfor.",
		"master":   "masterworker.",
	}[out.Kind]
	for _, sug := range c.Params {
		key := prefix + out.PatternName + "." + sug.Name
		if sug.Value < 1 && (sug.Name == "workers" || sug.Name == "chunksize") {
			// "Auto" suggestion for a spawn-sizing parameter: register
			// honest bounds instead of locking a zero — Params.Set
			// rejects non-positive worker counts, and a 0 frozen into
			// the tuning file would later clamp to a single worker.
			ps.Register(parrt.Param{
				Key: key, Kind: parrt.IntParam,
				Min: 1, Max: runtime.NumCPU(), Value: runtime.NumCPU(),
			})
		} else {
			ps.Set(key, sug.Value)
		}
		if param := ps.Lookup(key); param != nil {
			param.Location = c.Pos.String()
		}
	}
}

// TransformAnnotated implements operation mode 2: the engineer wrote
// TADL directives by hand; detection is bypassed entirely.
func (p *Process) TransformAnnotated() (*Artifacts, error) {
	prog, err := source.ParseSources(p.Sources)
	if err != nil {
		return nil, err
	}
	p.prog = prog
	p.arts.Model = model.Build(prog)
	anns, err := tadl.Extract(prog)
	if err != nil {
		return nil, err
	}
	if len(anns) == 0 {
		return nil, fmt.Errorf("core: no //tadl: directives found")
	}
	p.log("%s (from %d hand-written annotation(s))", PhaseTransform, len(anns))
	tr := transform.New(prog, p.Sources)
	ps := parrt.NewParams()
	for _, ann := range anns {
		out, err := tr.Function(ann)
		if err != nil {
			return nil, err
		}
		p.arts.Outputs = append(p.arts.Outputs, out)
	}
	p.arts.Annotations = anns
	p.arts.TuningConfig = tuning.FromParams("patty", ps)
	return &p.arts, nil
}

// ValidationResult is one unit test's exploration outcome.
type ValidationResult struct {
	Test   *ptest.UnitTest
	Result sched.Result
}

// Validate implements operation mode 4's correctness half: run every
// generated parallel unit test on the systematic scheduler. A run whose
// TransformCode found no candidates has nothing to validate: the result
// is empty and the error nil.
func (p *Process) Validate(opt sched.Options) ([]ValidationResult, error) {
	if !p.transformed {
		return nil, fmt.Errorf("core: TransformCode must run first")
	}
	var out []ValidationResult
	for _, ut := range p.arts.UnitTests {
		p.log("validating %s (%s)", ut.Name, ut.Description)
		res := ut.Run(opt)
		out = append(out, ValidationResult{Test: ut, Result: res})
		p.log("  %d schedule(s): %d race(s), %d deadlock(s), %d failure(s)",
			res.Schedules, len(res.Races), len(res.Deadlocks), len(res.Failures))
	}
	return out, nil
}

// Artifacts returns the artifacts collected so far.
func (p *Process) Artifacts() *Artifacts { return &p.arts }

// Program returns the parsed program (after CreateModel).
func (p *Process) Program() *source.Program { return p.prog }
