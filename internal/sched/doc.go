// Package sched is a CHESS-style systematic concurrency testing engine.
//
// The PMAM'15 paper validates generated parallel unit tests by running
// them on CHESS (Musuvathi et al., OSDI'08), which takes control of
// thread scheduling and *enumerates* thread interleavings instead of
// sampling them. This package reproduces that design for Go:
//
//   - Test programs are written against a controlled World: shared
//     variables (Var), mutexes (Mutex) and bounded channels (Chan) are
//     manipulated exclusively through a per-thread Context, making every
//     access a scheduling yield point.
//   - A cooperative scheduler runs exactly one thread at a time and
//     owns all shared state, so each run is deterministic and fully
//     replayable from its decision sequence. The scheduler runs on
//     whichever goroutine holds the baton: a thread that reaches a
//     yield point makes the next decision itself, continues at once
//     when it is chosen again, and hands the baton to the chosen
//     thread with one channel send otherwise.
//   - Explore performs a depth-first search over scheduling decisions,
//     re-executing the program once per interleaving. A run repeats
//     the previous run's steps up to the one it branches at without
//     the scheduler: the explorer keeps a log of executed steps, the
//     threads fast-forward concurrently through their logged
//     operations on the logged responses, each request checked
//     against the log, and the explorer brings the shared state to the
//     branch in one pass over the logged steps, each response checked
//     again. Thread functions must therefore share state only through
//     the World. The unbounded search, which every production caller
//     runs, is pruned by partial-order reduction to one interleaving
//     per Mazurkiewicz trace (por.go). Preemption bounding (CHESS's
//     key scalability insight: most bugs surface within <= 2
//     preemptions) gives an unreduced search that tests and the E10
//     bound table use as a reference.
//   - A vector-clock happens-before detector (Djit+-style) flags data
//     races on Vars even in interleavings where the race happens to be
//     benign, and the engine additionally reports deadlocks and
//     assertion (oracle) failures together with the schedule that
//     produced them.
//
// Package ptest generates the parallel unit tests that run on this
// engine; small test scope keeps the interleaving space tractable,
// which is exactly the paper's argument for unit-level race search.
package sched
