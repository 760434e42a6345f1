// Videopipeline reproduces the paper's running example end to end
// (experiment E8, Fig. 3 a→d): the AviStream filter chain is detected
// as the pipeline (A || B || C+) => D => E, annotated, transformed,
// validated on the systematic scheduler — and then executed for real
// through the runtime library (operation mode 3) with its tuning
// parameters, comparing tuned configurations.
//
//	go run ./examples/videopipeline
package main

import (
	"fmt"
	"log"
	"time"

	"patty"
	"patty/internal/corpus"
	"patty/internal/obs"
	"patty/internal/parrt"
	"patty/internal/report"
)

// Image is a video frame; the filters below are latency-bound (they
// model I/O-ish stage work), so even a single-core host shows pipeline
// overlap.
type Image struct {
	ID  int
	Lum int
}

func crop(img *Image)  { time.Sleep(2 * time.Millisecond); img.Lum = img.Lum % 65536 }
func histo(img *Image) { time.Sleep(2500 * time.Microsecond); img.Lum += 3 }
func oil(img *Image)   { time.Sleep(10 * time.Millisecond); img.Lum = img.Lum * 31 % 65536 }
func conv(img *Image)  { time.Sleep(2 * time.Millisecond); img.Lum /= 2 }

func sequential(frames []*Image) []int {
	var out []int
	for _, f := range frames {
		crop(f)
		histo(f)
		oil(f)
		conv(f)
		out = append(out, f.Lum)
	}
	return out
}

func frames(n int) []*Image {
	out := make([]*Image, n)
	for i := range out {
		out[i] = &Image{ID: i, Lum: i*37 + 11}
	}
	return out
}

func main() {
	// --- Phase artifacts on the corpus version of the example ---
	prog := corpus.Get("video")
	w := prog.Workload()
	p := patty.NewProcess(map[string]string{"video.go": prog.Source},
		patty.Options{Workload: &w, Log: func(s string) { fmt.Println(s) }})
	arts, err := p.Run()
	if err != nil {
		log.Fatal(err)
	}
	c := arts.Report.Candidates[0]
	fmt.Printf("\ndetected architecture (Fig. 3b): %s\n", c.Arch)
	fmt.Println("\ngenerated parallel code (Fig. 3d), excerpt:")
	code := arts.Outputs[0].Code
	if len(code) > 1800 {
		code = code[:1800] + "\n\t// ...\n"
	}
	fmt.Println(code)

	// Correctness validation (the CHESS-style step): patty.Validate's
	// reduced exhaustive search, with a smaller budget.
	opt := patty.ValidateOptions()
	opt.MaxSchedules = 3000
	results, err := p.Validate(opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("unit test %s: %d schedules, buggy=%v\n",
			r.Test.Name, r.Result.Schedules, r.Result.Buggy())
	}

	// --- Operation mode 3: the same pipeline through the library ---
	const n = 48
	want := sequential(frames(n))

	ps := parrt.NewParams()
	metrics := obs.New()
	pipe := parrt.NewPipeline("video", ps,
		parrt.Stage[Image]{Name: "A", Replicable: true, MaxReplication: 8, Fn: crop},
		parrt.Stage[Image]{Name: "B", Replicable: true, MaxReplication: 8, Fn: histo},
		parrt.Stage[Image]{Name: "C", Replicable: true, MaxReplication: 8, Fn: oil},
		parrt.Stage[Image]{Name: "D", Replicable: true, MaxReplication: 8, Fn: conv},
	).Instrument(metrics)

	run := func(label string) time.Duration {
		in := frames(n)
		start := time.Now()
		out := pipe.Process(in)
		elapsed := time.Since(start)
		for i, f := range out {
			if f.Lum != want[i] {
				log.Fatalf("%s: frame %d got %d want %d", label, f.ID, f.Lum, want[i])
			}
		}
		fmt.Printf("%-28s %8.1f ms (results identical to sequential)\n",
			label, float64(elapsed.Microseconds())/1000)
		return elapsed
	}

	fmt.Println("\nruntime-library execution (latency-bound stages):")
	ps.Set("pipeline.video.sequentialexecution", 1)
	seq := run("SequentialExecution=1")
	ps.Set("pipeline.video.sequentialexecution", 0)
	pipelined := run("pipeline, no replication")
	ps.Set("pipeline.video.stage.2.replication", 4)
	metrics.Reset() // bottleneck table below shows the tuned run only
	replicated := run("pipeline, oil replicated x4")

	fmt.Printf("\nspeedup pipeline vs sequential:   %.2fx\n", float64(seq)/float64(pipelined))
	fmt.Printf("speedup with StageReplication:    %.2fx\n", float64(seq)/float64(replicated))

	// The observability layer's view of the tuned run: how busy each
	// stage was, which stage bounds throughput, how congested the
	// queues are, what the reorder buffer cost — the feedback the
	// auto-tuner consumes.
	analyses := obs.Analyze(metrics.Snapshot())
	fmt.Println("\nper-stage runtime distribution (Fig. 4c view):")
	for _, st := range analyses[0].Stages {
		fmt.Printf("  %-4s items=%4d busy=%8.1f ms\n", st.Name, st.Service.Count,
			float64(st.Service.Sum)/1e6)
	}
	fmt.Println()
	fmt.Print(report.BottleneckTable(analyses))
}
