package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"patty/internal/difftest"
	"patty/internal/seed"
)

// cmdFuzz drives the differential fuzzing harness: generate programs,
// run each through detect → TADL → transform → parrt against the
// sequential oracle, shrink any divergence to a minimal reproducer and
// persist it. Exit status is non-zero when a divergence survives, so
// the command doubles as a CI gate. With -checkpoint the sweep is
// journaled and a killed run resumes at the next unchecked program; a
// SIGINT prints the summary so far. Both run the one sweep loop,
// difftest.Batch.
func cmdFuzz(ctx context.Context, args []string) error {
	fs := newFlagSet("fuzz")
	baseSeed := fs.Int64("seed", seed.Default, "base seed; program i is generated from seed.Mix(seed, i)")
	n := fs.Int("n", 200, "number of generated programs")
	shrink := fs.Bool("shrink", true, "delta-debug divergences to minimal reproducers")
	configs := fs.Int("configs", 3, "random tuning configurations per candidate")
	static := fs.Bool("static", false, "skip dynamic model enrichment")
	faults := fs.Bool("faults", false, "run fault-injection legs (retry must heal, skip must drop exactly the killed items)")
	schedEvery := fs.Int("sched-every", 25, "schedule-explore every k-th program (0: never)")
	reproDir := fs.String("repro-dir", "patty-out", "directory for reproducer files")
	checkSeed := fs.Int64("check-seed", 0, "replay one exact program seed (from a reproducer file) and exit")
	ckpt := fs.String("checkpoint", "", "journal sweep progress to this file and resume from it")
	fs.Parse(args)

	opt := difftest.Options{Configs: *configs, Static: *static, Faults: *faults}

	replay := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "check-seed" {
			replay = true
		}
	})
	if replay {
		opt.Sched = true
		return fuzzOne(difftest.Generate(*checkSeed, difftest.GenOptions{}), opt, *shrink, *reproDir)
	}

	b, resumed, err := difftest.NewBatch(*ckpt, *baseSeed, *n)
	if err != nil {
		return err
	}
	if resumed > 0 {
		fmt.Printf("checkpoint %s: resuming at program %d of %d\n", *ckpt, resumed, *n)
	}
	// Each divergence is shrunk and written as it is found; on resume,
	// those of the journaled prefix are re-derived first.
	sum, err := b.Run(ctx, func(i int, p *difftest.Prog) (*difftest.Result, error) {
		o := opt
		o.Sched = *schedEvery > 0 && i%*schedEvery == 0
		res, err := checkSafe(p, o)
		if err == nil && res.Div != nil {
			fmt.Println(reportDivergence(p, res.Div, o, *shrink, *reproDir))
		}
		return res, err
	}, nil)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	printFuzzSummary(sum.Programs, *baseSeed, sum.Kinds, len(sum.Divergences), interrupted)
	if len(sum.Divergences) > 0 {
		return fmt.Errorf("%d divergence(s) found", len(sum.Divergences))
	}
	return err
}

// printFuzzSummary renders the sweep's per-kind tally.
func printFuzzSummary(checked int, baseSeed int64, kinds map[string]int, divergences int, interrupted bool) {
	if interrupted {
		fmt.Print("interrupted: ")
	}
	fmt.Printf("checked %d programs (base seed %d): ", checked, baseSeed)
	for i, k := range []string{"data-parallel", "master-worker", "pipeline", "rejected"} {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", k, kinds[k])
	}
	fmt.Printf("; %d divergence(s)\n", divergences)
}

// checkFn is the differential checker; a seam so tests can stand in a
// faulting implementation.
var checkFn = difftest.Check

// checkSafe guards one differential check against runtime faults that
// escape the harness itself (a crashed collector, a broken pattern
// runtime): the raw panic trace becomes a one-line diagnostic and the
// command exits non-zero instead of dumping goroutine stacks.
func checkSafe(p *difftest.Prog, opt difftest.Options) (res *difftest.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("runtime fault: %v (replay: patty fuzz -check-seed %d)", r, p.Seed)
		}
	}()
	return checkFn(p, opt), nil
}

// fuzzOne checks a single program and, on divergence, shrinks it and
// writes the reproducer file.
func fuzzOne(p *difftest.Prog, opt difftest.Options, shrink bool, reproDir string) error {
	res, err := checkSafe(p, opt)
	if err != nil {
		return err
	}
	if res.Div == nil {
		fmt.Printf("seed %d: %s, no divergence\n", p.Seed, res.Kind)
		return nil
	}
	return reportDivergence(p, res.Div, opt, shrink, reproDir)
}

// reportDivergence shrinks a divergent program against the check that
// found it (when shrink is set), writes its reproducer file and returns
// the divergence as an error.
func reportDivergence(p *difftest.Prog, d *difftest.Divergence, opt difftest.Options, shrink bool, reproDir string) error {
	small := p
	if shrink {
		small, d = difftest.Shrink(p, func(q *difftest.Prog) *difftest.Divergence { return checkFn(q, opt).Div }, 0)
	}
	path, err := difftest.WriteRepro(reproDir, small, d)
	if err != nil {
		return fmt.Errorf("divergence %s (failed to write reproducer: %v)", d, err)
	}
	return fmt.Errorf("divergence %s\n  reproducer: %s (%d loop lines)", d, path, small.LoopLines())
}
