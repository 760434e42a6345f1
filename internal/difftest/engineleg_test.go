package difftest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

// TestEngineLegNamesEachDifference records a generated program's
// all-loops run on the tree-walker, changes one thing in the record,
// and checks that the VM's one run against it names that difference.
// Seed 3's Kernel has a prologue fill loop before its target loop.
func TestEngineLegNamesEachDifference(t *testing.T) {
	p := Generate(3, GenOptions{})
	prog, err := source.ParseSources(map[string]string{"fz.go": p.Render()})
	if err != nil {
		t.Fatal(err)
	}
	args := kernelArgs(int64(p.N))
	loop := func(r *treeRecord, i int) string {
		return fmt.Sprintf("loop %s#%d: ", r.refs[i].Fn, r.refs[i].Stmt)
	}
	anyRef := func(m map[interp.Ref]uint64) interp.Ref {
		for ref := range m {
			return ref
		}
		t.Fatal("empty profile map")
		return interp.Ref{}
	}
	// Each case changes the record and returns the report it expects.
	cases := []struct {
		name   string
		change func(r *treeRecord) string
	}{
		{"prologue event", func(r *treeRecord) string {
			ev := &r.loops[0].mem[3]
			want := fmt.Sprintf("memory event 3: tree={Addr:%d ", ev.Addr+1)
			ev.Addr++
			return loop(r, 0) + want
		}},
		{"short stream", func(r *treeRecord) string {
			l := &r.loops[1]
			l.mem = l.mem[:len(l.mem)-1]
			return fmt.Sprintf("%smemory trace length: tree=%d vm=%d", loop(r, 1), len(l.mem), len(l.mem)+1)
		}},
		{"long stream", func(r *treeRecord) string {
			l := &r.loops[1]
			l.mem = append(l.mem, l.mem[len(l.mem)-1])
			return fmt.Sprintf("%smemory trace length: tree=%d vm=%d", loop(r, 1), len(l.mem), len(l.mem)-1)
		}},
		{"iterations", func(r *treeRecord) string {
			l := &r.loops[1]
			l.leaves[0]++
			return fmt.Sprintf("%sactivation 0 ran %d iterations on the tree-walker, %d on the vm", loop(r, 1), l.leaves[0], l.leaves[0]-1)
		}},
		{"activations", func(r *treeRecord) string {
			l := &r.loops[0]
			l.leaves = append(l.leaves, 1)
			return loop(r, 0) + "activations: tree=2 vm=1"
		}},
		{"value", func(r *treeRecord) string {
			r.vals[0] = r.vals[0].(int64) + 1
			return fmt.Sprintf("value 0: tree=%d vm=%d", r.vals[0], r.vals[0].(int64)-1)
		}},
		{"virtual time", func(r *treeRecord) string {
			r.prof.Total++
			return fmt.Sprintf("virtual time: tree=%d vm=%d", r.prof.Total, r.prof.Total-1)
		}},
		{"incl", func(r *treeRecord) string {
			ref := anyRef(r.prof.Incl)
			r.prof.Incl[ref]++
			return fmt.Sprintf("incl[%s#%d]: tree=%d vm=%d", ref.Fn, ref.Stmt, r.prof.Incl[ref], r.prof.Incl[ref]-1)
		}},
		{"self", func(r *treeRecord) string {
			ref := anyRef(r.prof.Self)
			r.prof.Self[ref]++
			return fmt.Sprintf("self[%s#%d]: tree=%d vm=%d", ref.Fn, ref.Stmt, r.prof.Self[ref], r.prof.Self[ref]-1)
		}},
		{"count", func(r *treeRecord) string {
			ref := anyRef(r.prof.Count)
			r.prof.Count[ref]++
			return fmt.Sprintf("count[%s#%d]: tree=%d vm=%d", ref.Fn, ref.Stmt, r.prof.Count[ref], r.prof.Count[ref]-1)
		}},
		{"profile size", func(r *treeRecord) string {
			r.prof.Count[interp.Ref{Fn: "Kernel", Stmt: 1 << 20}] = 1
			return "profile sizes: tree incl/self/count="
		}},
		{"error", func(r *treeRecord) string {
			r.err = errors.New("interp: step budget exhausted")
			return `error mismatch: tree="interp: step budget exhausted" vm=""`
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := recordTree(prog, "Kernel", args)
			if len(r.refs) != 2 {
				t.Fatalf("seed 3 has %d loops, want a prologue fill and a target loop", len(r.refs))
			}
			if msg := r.checkVM(prog, "Kernel", args); msg != "" {
				t.Fatalf("unchanged record: %s", msg)
			}
			want := tc.change(r)
			if got := r.checkVM(prog, "Kernel", args); !strings.HasPrefix(got, want) {
				t.Errorf("got  %q\nwant %q...", got, want)
			}
		})
	}
}
