// Package parrt is Patty's parallel runtime library.
//
// The pattern-based parallelization process (see package patty) rewrites
// sequential regions into instantiations of the data types in this
// package. The library plays the role of the ".NET runtime library" of
// the PMAM'15 paper (Fig. 3d): it provides standardized, *tunable*
// parallel pattern implementations so that generated code never deals
// with threads, channels or synchronization directly.
//
// Three patterns are provided, matching the paper's catalog:
//
//   - Pipeline:     distinct stages organized in a processing chain over
//     a continuous stream of elements (stage binding, buffered hand-off).
//   - MasterWorker: a master distributes independent tasks to a pool of
//     workers and collects results.
//   - ParallelFor:  data-parallel loops with static, dynamic or guided
//     scheduling and reduction support.
//
// # One execution core
//
// Every pattern runs on the same core. One run skeleton serves ForCtx,
// ReduceCtx, MasterWorker.ProcessCtx and Pipeline.ProcessCtx: it looks
// up the fault policy, opens the fault run and the wall clock, decides
// the sequential fallback, arms the stall watchdog, joins the parallel
// body (or abandons it on a stall) and records an external
// cancellation. Each pattern supplies only its parallel body. The data
// patterns share one chunk runner as well: For and Reduce run the
// loop's own schedule and chunk size, Reduce folding its chunks in
// iteration-range order, and MasterWorker is a dynamic schedule of one
// task per chunk. The pipeline keeps its stage graph. Every run
// records into one place, the pattern's obs.Pattern (see Instrument).
//
// # Tuning parameters
//
// Every pattern registers its runtime-relevant knobs in a Params
// registry under stable dotted keys (for example
// "pipeline.video.stage.1.replication"). Changing a parameter value
// changes runtime behaviour but never semantics; the auto-tuner
// (package tuning) persists and mutates these values between runs, so
// applications adapt to the target multicore platform without
// recompilation — exactly the paper's tuning configuration file.
//
// The pipeline exposes the four tuning parameters of paper §2.2 (PLTP):
//
//   - StageReplication: run a side-effect-free stage r-fold in parallel
//     on consecutive stream elements.
//   - OrderPreservation: restore stream order after a replicated stage.
//   - StageFusion: execute adjacent stages in the same goroutine to
//     save hand-off and scheduling overhead.
//   - SequentialExecution: run the whole pipeline inline when the
//     stream is too short to amortize threading overhead, guaranteeing
//     the parallel version is never slower than the sequential one.
package parrt
