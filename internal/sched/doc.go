// Package sched is a CHESS-style systematic concurrency testing engine.
//
// The PMAM'15 paper validates generated parallel unit tests by running
// them on CHESS (Musuvathi et al., OSDI'08), which takes control of
// thread scheduling and *enumerates* thread interleavings instead of
// sampling them. This package reproduces that design for Go:
//
//   - Test programs are written against a controlled World: shared
//     variables (Var), mutexes (Mutex) and bounded channels (Chan) are
//     touched only through operations (Read, Write, Lock, Send, ...),
//     each a scheduling point. A thread is a step function (Thread):
//     given the response to its previous operation, it returns its
//     next one, or Exit.
//   - The explorer runs every thread on the goroutine that called
//     Explore, one step at a time: it picks a thread whose pending
//     operation can execute, applies the operation to the shared
//     state, and asks that thread for its next one. Explore starts no
//     goroutine, so each run is deterministic, fully replayable from
//     its decision sequence, and costs no thread switch.
//   - Explore performs a depth-first search over scheduling decisions,
//     re-executing the program once per interleaving. A run repeats
//     the previous run's steps up to the one it branches at without
//     the scheduler, in one pass over the explorer's log of executed
//     steps: each step's thread must return the logged operation,
//     which is applied to the shared state and the clocks, and its
//     response must be the logged one. Threads must therefore
//     share state only through the World. The unbounded search, which
//     every production caller runs, is pruned by partial-order
//     reduction to one interleaving per Mazurkiewicz trace (por.go).
//     Preemption bounding (CHESS's key scalability insight: most bugs
//     surface within <= 2 preemptions) gives an unreduced search that
//     tests and the E10 bound table use as a reference.
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
