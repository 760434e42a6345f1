package main

import (
	"context"
	"errors"
	"flag"
	"fmt"

	"patty/internal/difftest"
	"patty/internal/interp"
	"patty/internal/seed"
)

// setDefaultEngine applies a subcommand's -engine flag: it pins the
// package-wide default, so every Machine created downstream that does
// not pick its own engine (model enrichment, corpus evaluation) runs on
// that engine. difftest's engine leg always runs both.
func setDefaultEngine(name string) error {
	eng, err := interp.ParseEngine(name)
	if err != nil {
		return err
	}
	interp.DefaultEngine = eng
	return nil
}

// cmdFuzz drives the differential fuzzing harness: generate programs,
// run each through detect → TADL → transform → parrt against the
// sequential oracle, shrink any divergence to a minimal reproducer and
// persist it. Exit status is non-zero when a divergence survives, so
// the command doubles as a CI gate. With -checkpoint the sweep is
// journaled and a killed run resumes at the next unchecked program; a
// SIGINT prints the summary so far.
func cmdFuzz(ctx context.Context, args []string) error {
	fs := newFlagSet("fuzz")
	baseSeed := fs.Int64("seed", seed.Default, "base seed; program i is generated from seed.Mix(seed, i)")
	n := fs.Int("n", 200, "number of generated programs")
	shrink := fs.Bool("shrink", true, "delta-debug divergences to minimal reproducers")
	configs := fs.Int("configs", 3, "random tuning configurations per candidate")
	static := fs.Bool("static", false, "skip dynamic model enrichment")
	faults := fs.Bool("faults", false, "run fault-injection legs (retry must heal, skip must drop exactly the killed items)")
	schedEvery := fs.Int("sched-every", 25, "schedule-explore every k-th program (0: never; ignored with -checkpoint)")
	reproDir := fs.String("repro-dir", "patty-out", "directory for reproducer files")
	checkSeed := fs.Int64("check-seed", 0, "replay one exact program seed (from a reproducer file) and exit")
	ckpt := fs.String("checkpoint", "", "journal sweep progress to this file and resume from it")
	engineFlag := fs.String("engine", "auto", "interpreter engine for model creation's profiling run; the oracle is always the tree-walker, checked against the vm: auto | tree | vm")
	fs.Parse(args)
	if err := setDefaultEngine(*engineFlag); err != nil {
		return err
	}

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

	if *ckpt != "" {
		return fuzzCheckpointed(ctx, *ckpt, *baseSeed, *n, opt, *shrink, *reproDir)
	}

	kinds := make(map[string]int)
	divergences := 0
	checked := 0
	interrupted := false
	for i := 0; i < *n; i++ {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		p := difftest.Generate(seed.Mix(*baseSeed, int64(i)), difftest.GenOptions{})
		opt.Sched = *schedEvery > 0 && i%*schedEvery == 0
		res, err := checkSafe(p, opt)
		if err != nil {
			return err
		}
		checked++
		kinds[res.Kind]++
		if res.Div == nil {
			continue
		}
		divergences++
		if err := fuzzOne(p, opt, *shrink, *reproDir); err != nil {
			fmt.Println(err)
		}
	}
	printFuzzSummary(checked, *baseSeed, kinds, divergences, interrupted)
	if divergences > 0 {
		return fmt.Errorf("%d divergence(s) found", divergences)
	}
	if interrupted {
		return ctx.Err()
	}
	return nil
}

// fuzzCheckpointed runs the sweep through the crash-safe journal: a
// previous run's progress (kill -9 included) is resumed instead of
// redone, and divergent seeds recorded before the crash are re-derived
// into the summary.
func fuzzCheckpointed(ctx context.Context, path string, baseSeed int64, n int, opt difftest.Options, shrink bool, reproDir string) error {
	b, resumed, err := difftest.NewBatch(path, baseSeed, n)
	if err != nil {
		return err
	}
	if resumed > 0 {
		fmt.Printf("checkpoint %s: resuming at program %d of %d\n", path, resumed, n)
	}
	sum, runErr := b.Run(ctx, opt, func(msg string) { fmt.Println(msg) })
	interrupted := errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		return runErr
	}
	printFuzzSummary(sum.Programs, baseSeed, sum.Kinds, len(sum.Divergences), interrupted)
	for _, res := range sum.Divergences {
		if err := fuzzOne(difftest.Generate(res.Div.Seed, difftest.GenOptions{}), opt, shrink, reproDir); err != nil {
			fmt.Println(err)
		}
	}
	if len(sum.Divergences) > 0 {
		return fmt.Errorf("%d divergence(s) found", len(sum.Divergences))
	}
	return runErr
}

// printFuzzSummary renders the per-kind tally shared by both sweep modes.
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
	d := res.Div
	small := p
	if shrink {
		small, d = difftest.Shrink(p, opt, 0)
	}
	path, err := difftest.WriteRepro(reproDir, small, d)
	if err != nil {
		return fmt.Errorf("divergence %s (failed to write reproducer: %v)", d, err)
	}
	return fmt.Errorf("divergence %s\n  reproducer: %s (%d loop lines)", d, path, small.LoopLines())
}
