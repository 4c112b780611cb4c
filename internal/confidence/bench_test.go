package confidence

import (
	"fmt"
	"testing"

	"multirag/internal/llm"
)

// BenchmarkMCCRunConflict measures one MCC.RunDeferred over a single
// disagreeing group — the node-level path — with its history delta applied,
// by member count and by how many of the members carry distinct values, at
// the paper's α = 0.5. B/op and allocs/op are the tracked numbers; they grow
// with the distinct values (one token profile each), not with member pairs —
// the expert model's path support and seeded coin allocate nothing per
// member (TestRunAllocCeiling pins both α = 0 and α = 0.5). The /finish
// variants time only the history-dependent half on a prepared one, which is
// what an evidence-memo hit on the group costs (TestFinishAllocCeiling pins
// its allocations).
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
				if res := runApply(m, sg, cands, Options{}); res.NodesScored != n {
					b.Fatalf("group must take the node-level path, scored %d of %d", res.NodesScored, n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runApply(m, sg, cands, Options{})
				}
			})
			b.Run(fmt.Sprintf("n=%d/%s/finish", n, shape.name), func(b *testing.B) {
				sg, cands := conflictGroup(b, n, shape.distinct)
				m := New(Config{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99},
					llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
				p := m.Prepare(sg, cands, Options{})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Finish(p)
				}
			})
		}
	}
}

func BenchmarkMISimilarity(b *testing.B) {
	a := []string{"2024-10-01 14:30 departure"}
	c := []string{"2024-10-01 16:45 departure"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Similarity(a, c)
	}
}
