package difftest

import (
	"fmt"
	"math/rand"
	"runtime"

	"patty/internal/pattern"
	"patty/internal/tadl"
)

// sampleConfigs draws the tuning configurations one candidate is
// executed under: the untouched defaults, the SequentialExecution
// escape hatch (which must trivially match the oracle), and k random
// assignments over the pattern's tuning space — worker counts,
// schedules, chunk sizes, stage replication degrees, order
// preservation, fusion and buffer capacity.
//
// Order preservation is never switched off for order-sensitive
// programs: with a carried statement whose fold is non-commutative,
// out-of-order arrival legitimately changes the result, so an
// order-off run would flag the runtime for behaving as documented.
func sampleConfigs(r *rand.Rand, cand *pattern.Candidate, patName string, orderSensitive bool, k int) []Config {
	configs := []Config{{Name: "default", Assign: map[string]int{}}}

	switch cand.Kind {
	case pattern.DataParallelKind, pattern.MasterWorkerKind:
		prefix := "parallelfor." + patName
		if cand.Kind == pattern.MasterWorkerKind {
			prefix = "masterworker." + patName
		}
		configs = append(configs, Config{Name: "seq", Assign: map[string]int{
			prefix + ".sequentialexecution": 1,
		}})
		workers := []int{1, 2, 3, runtime.NumCPU()}
		for c := 0; c < k; c++ {
			a := map[string]int{
				prefix + ".workers":        workers[r.Intn(len(workers))],
				prefix + ".minparallellen": 0,
			}
			if cand.Kind == pattern.DataParallelKind {
				a[prefix+".schedule"] = r.Intn(3) // static / dynamic / guided
				chunks := []int{1, 2, 7, 64}
				a[prefix+".chunksize"] = chunks[r.Intn(len(chunks))]
			} else {
				a[prefix+".orderpreservation"] = r.Intn(2)
			}
			configs = append(configs, Config{Name: fmt.Sprintf("rand%d", c), Assign: a})
		}

	case pattern.PipelineKind:
		prefix := "pipeline." + patName
		configs = append(configs, Config{Name: "seq", Assign: map[string]int{
			prefix + ".sequentialexecution": 1,
		}})
		// Parameter keys index the runtime's stages, which are the
		// TADL groups (a (A || B) section is ONE parrt stage), not
		// the candidate's label list.
		groups, err := tadl.Stages(cand.Annotation.Arch)
		if err != nil {
			return configs
		}
		bufs := []int{1, 2, 8}
		for c := 0; c < k; c++ {
			a := map[string]int{
				prefix + ".minparallellen": 0,
				prefix + ".buffersize":     bufs[r.Intn(len(bufs))],
			}
			for i, grp := range groups {
				if grp.Replicable && r.Intn(2) == 1 {
					a[fmt.Sprintf("%s.stage.%d.replication", prefix, i)] = 1 + r.Intn(4)
				}
				order := 1
				if !orderSensitive {
					order = r.Intn(2)
				}
				a[fmt.Sprintf("%s.stage.%d.orderpreservation", prefix, i)] = order
			}
			for i := 0; i+1 < len(groups); i++ {
				if r.Intn(100) < 25 {
					a[fmt.Sprintf("%s.fuse.%d", prefix, i)] = 1
				}
			}
			configs = append(configs, Config{Name: fmt.Sprintf("rand%d", c), Assign: a})
		}
	}
	return configs
}
