package retrieval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestTopKSelector pins the bounded selector against sort on random inputs,
// including duplicate scores.
func TestTopKSelector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		n := rng.Intn(50)
		chunks := make([]Chunk, n)
		scores := make([]float64, n)
		for i := range chunks {
			chunks[i] = Chunk{ID: fmt.Sprintf("c%03d", i)}
			scores[i] = float64(rng.Intn(5)) / 4 // few distinct values → ties
		}
		k := 1 + rng.Intn(12)
		sel := newTopK(k)
		var all []Hit
		for i := range chunks {
			sel.consider(&chunks[i], scores[i])
			all = append(all, Hit{Chunk: chunks[i], Score: scores[i]})
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].Chunk.ID < all[j].Chunk.ID
		})
		if k > len(all) {
			k = len(all)
		}
		want := all[:k]
		if got := sel.sorted(); !hitsEqual(got, want) {
			t.Fatalf("round %d: topK(%d) over %d hits:\n got  %s\n want %s",
				round, k, n, fmtHits(got), fmtHits(want))
		}
	}
}
