package study

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"

	"patty/internal/baseline"
	"patty/internal/corpus"
	"patty/internal/durable"
)

// OutcomeKind tags measured-outcome snapshots in the durable.Save
// envelope.
const OutcomeKind = "study-outcome"

// MeasuredOutcome recomputes the tool outcome by running the actual
// detectors on the raytrace corpus benchmark (experiment E5's link
// between the study simulation and the real system). It is slower
// than PaperOutcome but proves the 3/3-vs-1 numbers are live.
func MeasuredOutcome() (ToolOutcome, error) {
	p := corpus.Get("raytrace")
	if p == nil {
		return ToolOutcome{}, fmt.Errorf("study: raytrace benchmark missing")
	}
	m, err := p.BuildModel(true)
	if err != nil {
		return ToolOutcome{}, err
	}
	truth := make(map[baseline.Location]bool)
	prog := m.Prog
	for _, tr := range p.Truth {
		fn := prog.Func(tr.Fn)
		loops := fn.Loops()
		truth[baseline.Location{Fn: tr.Fn, LoopID: fn.StmtID(loops[tr.LoopIdx])}] = true
	}
	count := func(locs []baseline.Location) (tp, fp int) {
		for _, l := range locs {
			if truth[l] {
				tp++
			} else {
				fp++
			}
		}
		return
	}
	ptp, pfp := count(baseline.Patty{}.Detect(m))
	htp, _ := count(baseline.HotspotProfiler{}.Detect(m))
	return ToolOutcome{
		GroundTruth:   len(p.Truth),
		PattyFinds:    ptp,
		PattyFalse:    pfp,
		ProfilerFinds: htp,
	}, nil
}

// MeasuredOutcomeCached is MeasuredOutcome behind a crash-safe
// snapshot: a valid checkpoint at path answers without re-running the
// detectors, a missing one triggers the measurement and persists it,
// and a corrupt one is measured over and rewritten (the measurement is
// the source of truth; the snapshot only saves time on restart).
// resumed reports whether the outcome came from the snapshot.
func MeasuredOutcomeCached(path string) (out ToolOutcome, resumed bool, err error) {
	loadErr := durable.Load(durable.OS, path, OutcomeKind, &out)
	if loadErr == nil {
		return out, true, nil
	}
	if !errors.Is(loadErr, fs.ErrNotExist) && !errors.Is(loadErr, durable.ErrCorrupt) {
		return ToolOutcome{}, false, loadErr
	}
	out, err = MeasuredOutcome()
	if err != nil {
		return ToolOutcome{}, false, err
	}
	if err := durable.Save(durable.OS, path, OutcomeKind, &out); err != nil {
		return ToolOutcome{}, false, err
	}
	return out, false, nil
}

// FormatTable1 renders the comprehensibility table (paper Table 1).
func (res *Results) FormatTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Comprehensibility: Average Values, Standard Deviation. [-3(worst) ; +3(best)]\n")
	fmt.Fprintf(&b, "%-24s %-18s %-18s\n", "Indicator", "Group 1: Patty", "Group 2: intel")
	for _, ind := range res.Table1 {
		fmt.Fprintf(&b, "%-24s %5.2f, %4.2f %11.2f, %4.2f\n",
			ind.Name, ind.PattyMean, ind.PattySD, ind.IntelMean, ind.IntelSD)
	}
	fmt.Fprintf(&b, "%-24s %5.2f %17.2f\n", "Total Comprehensibility", res.Table1Patty, res.Table1Intel)
	return b.String()
}

// FormatTable2 renders the subjective-assistance table (paper Table 2).
func (res *Results) FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Subjective Tool Assistance: Average Values, Standard Deviation. [-3(worst) ; +3(best)]\n")
	fmt.Fprintf(&b, "%-38s %-18s %-18s\n", "Indicator", "Group 1: Patty", "Group 2: intel")
	for _, ind := range res.Table2 {
		fmt.Fprintf(&b, "%-38s %5.2f, %4.2f %11.2f, %4.2f\n",
			ind.Name, ind.PattyMean, ind.PattySD, ind.IntelMean, ind.IntelSD)
	}
	fmt.Fprintf(&b, "%-38s %5.2f %17.2f\n", "Overall assessment", res.Table2Patty, res.Table2Intel)
	return b.String()
}

// FormatFig5a renders the desired-features chart data (paper Fig. 5a).
func (res *Results) FormatFig5a() string {
	var b strings.Builder
	b.WriteString("Figure 5a. Desired Features of Parallelization Tools (manual group; mean with quartile range)\n")
	fmt.Fprintf(&b, "%-34s %6s %6s %6s  %s\n", "Feature", "mean", "lo", "hi", "covered by")
	for _, f := range res.Fig5a {
		cov := ""
		if f.PattyHas {
			cov += "Patty "
		}
		if f.IntelHas {
			cov += "ParallelStudio"
		}
		if cov == "" {
			cov = "-"
		}
		fmt.Fprintf(&b, "%-34s %6.2f %6.2f %6.2f  %s\n", f.Name, f.Mean, f.Lo, f.Hi, cov)
	}
	return b.String()
}

// FormatFig5b renders the time measurements (paper Fig. 5b).
func (res *Results) FormatFig5b() string {
	var b strings.Builder
	b.WriteString("Figure 5b. Time Measurements (in minutes)\n")
	fmt.Fprintf(&b, "%-28s %8s %8s %8s\n", "", "Patty", "intel", "Manual")
	row := func(name string, get func(GroupTimes) float64) {
		vals := make(map[Group]float64)
		for _, t := range res.Fig5b {
			vals[t.Group] = get(t)
		}
		fmt.Fprintf(&b, "%-28s %8.2f %8.2f %8.2f\n", name,
			vals[PattyGroup], vals[IntelGroup], vals[ManualGroup])
	}
	row("Total working time", func(t GroupTimes) float64 { return t.TotalWork })
	row("Time for first identification", func(t GroupTimes) float64 { return t.FirstFind })
	row("Time for first tool usage", func(t GroupTimes) float64 { return t.FirstToolUse })
	return b.String()
}

// FormatEffectivity renders §4.2's objective results.
func (res *Results) FormatEffectivity() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Effectivity (ground truth: %d locations; Patty tool reports %d, plain profiler reveals %d)\n",
		res.GroundTruthN, res.PattyDetected, res.HotDetected)
	fmt.Fprintf(&b, "%-10s %14s %10s %16s %14s\n", "Group", "locations/avg", "% correct", "false positives", "work time/min")
	for _, e := range res.Effectivity {
		fmt.Fprintf(&b, "%-10s %14.2f %10.0f %16.2f %14.2f\n",
			e.Group, e.FoundAvg, e.FoundPct, e.FalsePositives, e.TotalTimeMin)
	}
	return b.String()
}

// FormatAll renders the complete evaluation.
func (res *Results) FormatAll() string {
	return res.FormatTable1() + "\n" + res.FormatTable2() + "\n" +
		res.FormatFig5a() + "\n" + res.FormatFig5b() + "\n" + res.FormatEffectivity()
}
