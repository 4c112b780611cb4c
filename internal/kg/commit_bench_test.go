package kg

import (
	"fmt"
	"testing"
)

// benchCorpus builds a graph the shape of the end-to-end benchmark's: 6,100
// entities, 11 triples each over 12 predicates — 67,100 triples. It returns
// a clone of the bulk load, which like every snapshot the engine serves has
// its interner tails flattened; re-cloning the bulk load itself would
// re-flatten them each time.
func benchCorpus(tb testing.TB) *Graph {
	return lineageGraph(tb, 6100, 11, 12, 0).Clone()
}

// BenchmarkGraphCommitAppend measures what one ingest commit costs the graph:
// clone the newest graph and replay one small delta file's operations — 11
// triples restating three existing entities from a new source — at the
// end-to-end benchmark's corpus size. "linear" makes each clone the next
// parent, the engine's history, so every add wins its claim and appends to
// the shared posting lists and the triple columns' shared tail pages in
// place; "fork" re-clones one parent, so every commit after the first loses
// the claim, reallocates each list it appends to and copies the tail pages,
// the 32 KiB page of triples most of its B/op. B/op is the tracked number; on "linear" it no longer holds a term in
// the lists' length, and what is left is mostly the byKey overlay's tail
// clone, which grows with the commits since the overlay last flattened — so
// compare at equal -benchtime. Run via `make bench-micro`.
func BenchmarkGraphCommitAppend(b *testing.B) {
	delta := make([][]Fact, 256)
	for d := range delta {
		for j := 0; j < 11; j++ {
			delta[d] = append(delta[d], Fact{
				Subject: CanonicalID(fmt.Sprintf("Entity %d", (d*37+j%3*2000)%6100)), Predicate: fmt.Sprintf("p%d", j),
				Object: fmt.Sprintf("w%d", d), Source: fmt.Sprintf("delta-%d", d),
			})
		}
	}
	for _, linear := range []bool{true, false} {
		name := "fork"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			cur := benchCorpus(b)
			commit := func(i int) {
				next := cur.Clone()
				for _, t := range delta[i%len(delta)] {
					if _, err := next.AddTriple(t); err != nil {
						b.Fatal(err)
					}
				}
				if linear {
					cur = next
				}
			}
			commit(0) // the fork case needs one claimant ahead of it
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit(i + 1)
			}
		})
	}
}

// BenchmarkCOWPagePrivatize measures the first write to a shared page, the
// unit of copy-on-write cost: a 512-row scalar page, a 64-row posting page
// copied header for header (the in-place lineage), and a posting page clipped
// list by list (after a fork).
func BenchmarkCOWPagePrivatize(b *testing.B) {
	b.Run("col", func(b *testing.B) {
		var c col[int32]
		for i := 0; i < pageSize; i++ {
			c.append(int32(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.owned[0] = false
			c.set(7, int32(i))
		}
	})
	for _, alien := range []bool{false, true} {
		name := "posting"
		if alien {
			name = "posting-forked"
		}
		b.Run(name, func(b *testing.B) {
			var pc postingCol
			for i := int32(0); i < postingPageSize; i++ {
				for v := int32(0); v < 11; v++ {
					pc.appendTo(i, v)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc.owned[0], pc.alien[0] = false, alien
				pc.privatize(0)
			}
		})
	}
}
