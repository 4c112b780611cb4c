package confidence

import (
	"fmt"
	"testing"

	"multirag/internal/llm"
)

// BenchmarkMCCRunConflict measures one MCC.Run over a single disagreeing
// group — the node-level path the evidence memo never caches — by member
// count and by how many of the members carry distinct values, at the paper's
// α = 0.5. B/op and allocs/op are the tracked numbers. MCC's own share grows
// with the distinct values (TestRunAllocCeiling pins it at α = 0); the rest,
// and the part still quadratic in members, is the expert model's
// kg.TwoHopPathSupport re-normalising every sibling's value per member.
func BenchmarkMCCRunConflict(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		for _, shape := range []struct {
			name     string
			distinct int
		}{{"all-distinct", n}, {"quarter-distinct", max(2, n/4)}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, shape.name), func(b *testing.B) {
				sg, cands := conflictGroup(b, n, shape.distinct)
				m := New(Config{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99},
					llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
				if res := m.Run(sg, cands, Options{}); res.NodesScored != n {
					b.Fatalf("group must take the node-level path, scored %d of %d", res.NodesScored, n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Run(sg, cands, Options{})
				}
			})
		}
	}
}
