package difftest

import (
	"testing"

	"patty/internal/seed"
)

// BenchmarkCheck is one fuzzing op with the patty fuzz settings:
// Generate then Check, 3 random configurations, schedule exploration on
// every 25th program. Op i checks program i mod 25 of the default
// seed's sweep, so a run of 25 ops covers the block once. B/op and
// allocs/op show the garbage each Check leaves.
func BenchmarkCheck(b *testing.B) {
	const block = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % block
		p := Generate(seed.Mix(seed.Default, int64(k)), GenOptions{})
		if res := Check(p, Options{Configs: 3, Sched: k == 0}); res.Div != nil {
			b.Fatalf("seed %d: %s", p.Seed, res.Div)
		}
	}
}
