package evalcache_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"patty"
	"patty/internal/corpus"
	"patty/internal/difftest"
	"patty/internal/evalcache"
	"patty/internal/source"
	"patty/internal/tadl"
)

var update = flag.Bool("update", false, "rewrite testdata/program_hash.golden")

// hash is a fatal-on-error helper.
func hash(t *testing.T, src string) string {
	t.Helper()
	h, err := evalcache.ProgramHash(map[string]string{"prog.go": src})
	if err != nil {
		t.Fatalf("ProgramHash: %v", err)
	}
	return h
}

const baseProgram = `package main

func sum(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total = total + xs[i]
	}
	return total
}

func main() {
	data := []int{1, 2, 3, 4}
	out := sum(data)
	println(out)
}
`

// TestProgramHashInvariance is the satellite property test: the
// canonical hash must not see whitespace, comments (including tadl
// directives), or function-local naming — exactly the rewrites a
// resubmitted program goes through between editor and queue.
func TestProgramHashInvariance(t *testing.T) {
	base := hash(t, baseProgram)

	t.Run("whitespace", func(t *testing.T) {
		mangled := "package main\n\n\nfunc sum(xs []int) int {\n\ttotal := 0\n\n\tfor i := 0; i < len(xs); i++ {\n\t\ttotal = total + xs[i]   \n\t}\n\treturn total\n}\n\nfunc main() {\n\tdata := []int{1,\n\t\t2, 3, 4}\n\tout := sum(data)\n\tprintln(out)\n}\n"
		if got := hash(t, mangled); got != base {
			t.Errorf("reformatted program hashes differently:\n %s\n %s", got, base)
		}
	})

	t.Run("comments", func(t *testing.T) {
		commented := `package main

// sum adds a slice. This comment must not reach the hash.
func sum(xs []int) int {
	total := 0 // running total
	//tadl:arch loop
	for i := 0; i < len(xs); i++ {
		total = total + xs[i]
	}
	return total /* done */
}

func main() {
	data := []int{1, 2, 3, 4}
	out := sum(data)
	println(out)
}
`
		if got := hash(t, commented); got != base {
			t.Errorf("commented program hashes differently:\n %s\n %s", got, base)
		}
	})

	t.Run("local-renames", func(t *testing.T) {
		renamed := `package main

func sum(values []int) int {
	acc := 0
	for idx := 0; idx < len(values); idx++ {
		acc = acc + values[idx]
	}
	return acc
}

func main() {
	input := []int{1, 2, 3, 4}
	result := sum(input)
	println(result)
}
`
		if got := hash(t, renamed); got != base {
			t.Errorf("locally renamed program hashes differently:\n %s\n %s", got, base)
		}
	})

	t.Run("shadowing-respected", func(t *testing.T) {
		// Two programs that differ only in which variable an inner
		// scope resolves to must hash differently: renaming is
		// scope-aware, not textual.
		outer := `package main

func f() int {
	x := 1
	{
		y := x + 1
		x = y
	}
	return x
}
`
		shadow := `package main

func f() int {
	x := 1
	{
		x := x + 1
		_ = x
	}
	return x
}
`
		if hash(t, outer) == hash(t, shadow) {
			t.Error("shadowing change did not change the hash")
		}
	})

	t.Run("top-level-name-is-semantic", func(t *testing.T) {
		renamedFn := `package main

func add(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total = total + xs[i]
	}
	return total
}

func main() {
	data := []int{1, 2, 3, 4}
	out := add(data)
	println(out)
}
`
		if hash(t, renamedFn) == base {
			t.Error("renaming a top-level function must change the hash (entry points are selected by name)")
		}
	})

	t.Run("semantic-change-misses", func(t *testing.T) {
		mul := `package main

func sum(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total = total * xs[i]
	}
	return total
}

func main() {
	data := []int{1, 2, 3, 4}
	out := sum(data)
	println(out)
}
`
		if hash(t, mul) == base {
			t.Error("operator change must change the hash")
		}
	})
}

// TestProgramHashTadlRoundTrip runs real static detection over the
// whole corpus and inserts the resulting TADL directives: the
// annotated source must hash identically to the original, so a tuned
// program resubmitted with its annotations hits the cache.
func TestProgramHashTadlRoundTrip(t *testing.T) {
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			fname := p.Name + ".go"
			orig, err := evalcache.ProgramHash(map[string]string{fname: p.Source})
			if err != nil {
				t.Fatalf("hash original: %v", err)
			}
			rep, err := patty.Detect(map[string]string{fname: p.Source}, nil)
			if err != nil {
				t.Fatalf("detect: %v", err)
			}
			anns := make([]tadl.Annotation, 0, len(rep.Candidates))
			for _, c := range rep.Candidates {
				anns = append(anns, c.Annotation)
			}
			prog, err := source.ParseSources(map[string]string{fname: p.Source})
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			annotated, err := tadl.Annotate(prog, p.Source, anns)
			if err != nil {
				t.Fatalf("annotate: %v", err)
			}
			after, err := evalcache.ProgramHash(map[string]string{fname: annotated})
			if err != nil {
				t.Fatalf("hash annotated: %v", err)
			}
			if orig != after {
				t.Errorf("tadl round-trip changed the hash:\n before %s\n after  %s", orig, after)
			}
		})
	}
}

// TestProgramHashCorpusDistinct: semantically different programs must
// have distinct addresses — a collision would hand one workload
// another's measured costs.
func TestProgramHashCorpusDistinct(t *testing.T) {
	seen := make(map[string]string)
	for _, p := range corpus.All() {
		h, err := evalcache.ProgramHash(map[string]string{p.Name + ".go": p.Source})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prev, ok := seen[h]; ok {
			t.Errorf("corpus programs %s and %s share hash %s", prev, p.Name, h)
		}
		seen[h] = p.Name
	}
	if len(seen) < 2 {
		t.Fatalf("corpus too small for a distinctness check: %d programs", len(seen))
	}
}

// TestProgramHashStability: hashing is deterministic across calls and
// across file-map ordering (files hash in sorted name order).
func TestProgramHashStability(t *testing.T) {
	a, err := evalcache.ProgramHash(map[string]string{"b.go": baseProgram, "a.go": "package main\n\nfunc aux() int { return 7 }\n"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalcache.ProgramHash(map[string]string{"a.go": "package main\n\nfunc aux() int { return 7 }\n", "b.go": baseProgram})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("hash depends on map iteration order: %s vs %s", a, b)
	}
}

// TestSpecHash: distinct kinds and distinct specs must not collide;
// identical input must be stable.
func TestSpecHash(t *testing.T) {
	type spec struct{ Cores, Delay int }
	h1, err := evalcache.SpecHash("tune/v1", spec{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := evalcache.SpecHash("tune/v1", spec{4, 0})
	if h1 != h2 {
		t.Error("SpecHash not deterministic")
	}
	if h3, _ := evalcache.SpecHash("tune/v2", spec{4, 0}); h3 == h1 {
		t.Error("kind does not namespace the hash")
	}
	if h4, _ := evalcache.SpecHash("tune/v1", spec{8, 0}); h4 == h1 {
		t.Error("spec change does not change the hash")
	}
}

// TestProgramHashGolden pins the address of every corpus program and
// of 300 generated ones. A persisted store is keyed by these hashes:
// a change to the canonical form silently turns every stored
// evaluation into a miss, so it must be deliberate (-update).
func TestProgramHashGolden(t *testing.T) {
	var b strings.Builder
	add := func(label, name, src string) {
		h, err := evalcache.ProgramHash(map[string]string{name: src})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&b, "%s %s\n", label, h)
	}
	for _, p := range corpus.All() {
		add("corpus/"+p.Name, p.Name+".go", p.Source)
	}
	for seed := int64(1); seed <= 300; seed++ {
		add(fmt.Sprintf("gen/%d", seed), "prog.go", difftest.Generate(seed, difftest.GenOptions{}).Render())
	}
	const path = "testdata/program_hash.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d hashes, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("hash moved:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}

// TestProgramHashWrongMergeGuards: each pair differs only in which
// variable one identifier reads, so the two programs compute different
// things and must never share an address. A resolver that left that
// identifier unresolved would keep its spelling while renaming the
// declarations around it, and hash both programs alike. Renaming a
// program's locals consistently must still hit.
func TestProgramHashWrongMergeGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		// a and b differ in which variable one identifier reads;
		// renamed is a with its locals renamed consistently.
		a, b, renamed string
	}{
		{
			// a's key reads the inner k, b's the outer one.
			name: "map-literal-key",
			a: `package main

func F(a []int) map[int]int {
	k := 0
	{
		k := 1
		return map[int]int{k: a[0]}
	}
}
`,
			b: `package main

func F(a []int) map[int]int {
	k := 0
	{
		j := 1
		return map[int]int{k: a[0]}
	}
}
`,
			renamed: `package main

func F(xs []int) map[int]int {
	p := 0
	{
		q := 1
		return map[int]int{q: xs[0]}
	}
}
`,
		},
		{
			// a's literal returns its named result, b's the
			// enclosing local.
			name: "closure-named-result",
			a: `package main

func F() int {
	r := 5
	f := func() (r int) {
		return r
	}
	return f()
}
`,
			b: `package main

func F() int {
	s := 5
	f := func() (r int) {
		return s
	}
	return f()
}
`,
			renamed: `package main

func F() int {
	v := 5
	g := func() (res int) {
		return res
	}
	return g()
}
`,
		},
		{
			// A field key is not a variable: a sets field x, b
			// field y.
			name: "struct-literal-key",
			a: `package main

type P struct{ x, y int }

func F() P {
	x := 1
	return P{x: x}
}
`,
			b: `package main

type P struct{ x, y int }

func F() P {
	y := 1
	return P{y: y}
}
`,
			renamed: `package main

type P struct{ x, y int }

func F() P {
	v := 1
	return P{x: v}
}
`,
		},
		{
			// The resolver does not model type switches, so F keeps
			// its names; G, which holds none, is still canonical.
			name: "type-switch",
			a: `package main

func F(v any) int {
	x := 1
	{
		x := 2
		switch v.(type) {
		case int:
			return x
		}
	}
	return x
}

func G(n int) int { m := n + 1; return m }
`,
			b: `package main

func F(v any) int {
	x := 1
	{
		y := 2
		switch v.(type) {
		case int:
			return x
		}
	}
	return x
}

func G(n int) int { m := n + 1; return m }
`,
			renamed: `package main

func F(v any) int {
	x := 1
	{
		x := 2
		switch v.(type) {
		case int:
			return x
		}
	}
	return x
}

func G(k int) int { s := k + 1; return s }
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := hash(t, tc.a)
			if a == hash(t, tc.b) {
				t.Error("programs reading different variables share a hash")
			}
			if a != hash(t, tc.renamed) {
				t.Error("a consistent rename of the locals changed the hash")
			}
		})
	}
}

// TestProgramHashUnmodeledKeepsNames: a function holding a construct
// the resolver does not model keeps its original names, so renaming
// its locals costs a hit rather than risking a wrong one.
func TestProgramHashUnmodeledKeepsNames(t *testing.T) {
	const src = `package main

func F(c chan int) int {
	%s := 0
	%[1]s++
	select {
	case v := <-c:
		return v
	}
}
`
	if hash(t, fmt.Sprintf(src, "x")) == hash(t, fmt.Sprintf(src, "y")) {
		t.Error("a function with a select statement was renamed")
	}
}
