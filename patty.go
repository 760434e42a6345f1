// Package patty is a pattern-based parallelization tool for the
// multicore age — a from-scratch Go reproduction of Molitorisz,
// Müller and Tichy's Patty (PMAM '15).
//
// Patty takes sequential Go source code and produces tunable,
// validated parallel code in four phases (the paper's Fig. 1):
//
//  1. Model Creation: control flow × data dependencies × call graph ×
//     runtime information from an interpreter-based profiler.
//  2. Pattern Analysis: a catalog of source patterns detects pipeline,
//     data-parallel and master/worker opportunities (rules PLPL, PLDD,
//     PLCD, PLDS, PLTP).
//  3. Tunable Architecture: candidates are expressed as TADL
//     annotations at the exact source location.
//  4. Code Transform: annotated regions become instantiations of the
//     tunable parallel runtime library, plus a tuning configuration
//     file and generated parallel unit tests that run on a CHESS-style
//     systematic scheduler.
//
// Quick start:
//
//	arts, err := patty.Parallelize(map[string]string{"main.go": src}, nil)
//	// arts.Report        — detected candidates with TADL expressions
//	// arts.AnnotatedSources — Fig. 3b artifacts
//	// arts.Outputs       — generated parallel Go (Fig. 3d)
//	// arts.TuningConfig  — Fig. 3c artifact
//	// arts.UnitTests     — run them via patty.Validate
//
// The subsystems are exposed for finer-grained use: see
// internal/parrt (runtime library, operation mode 3), internal/tadl
// (annotation language, mode 2), internal/tuning (auto-tuners),
// internal/sched (systematic concurrency testing, mode 4),
// internal/corpus and internal/study (the paper's evaluation).
package patty

import (
	"patty/internal/core"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/sched"
)

// Options re-exports the process options.
type Options = core.Options

// Artifacts re-exports the per-phase artifacts.
type Artifacts = core.Artifacts

// Process re-exports the process-model driver.
type Process = core.Process

// Workload re-exports the dynamic-analysis workload description.
type Workload = model.Workload

// NewProcess prepares a parallelization run over filename→source
// pairs.
func NewProcess(sources map[string]string, opt Options) *Process {
	return core.NewProcess(sources, opt)
}

// Parallelize runs the full automatic pipeline (operation mode 1).
// workload may be nil (static-only model).
func Parallelize(sources map[string]string, workload *Workload) (*Artifacts, error) {
	return NewProcess(sources, Options{Workload: workload}).Run()
}

// Detect runs phases 1-2 only and returns the detection report.
func Detect(sources map[string]string, workload *Workload) (*pattern.Report, error) {
	p := NewProcess(sources, Options{Workload: workload})
	if err := p.CreateModel(); err != nil {
		return nil, err
	}
	if err := p.AnalyzePatterns(); err != nil {
		return nil, err
	}
	return p.Artifacts().Report, nil
}

// TransformAnnotated compiles hand-written //tadl: directives to
// parallel code (operation mode 2).
func TransformAnnotated(sources map[string]string) (*Artifacts, error) {
	return NewProcess(sources, Options{}).TransformAnnotated()
}

// ValidateOptions returns Validate's exploration settings: the
// exhaustive search under partial-order reduction, which runs every
// trace of a unit test once, capped at 5000 schedules.
func ValidateOptions() sched.Options {
	return sched.Options{PreemptionBound: -1, MaxSchedules: 5000}
}

// Validate runs the generated parallel unit tests of a completed
// process under the systematic scheduler (operation mode 4).
func Validate(p *Process) ([]core.ValidationResult, error) {
	return p.Validate(ValidateOptions())
}
