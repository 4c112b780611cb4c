package kg

import (
	"fmt"
	"runtime"
	"slices"
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

// commitDeltas returns the small delta files BenchmarkGraphCommitAppend and
// TestCommitBytesDoNotGrowWithHistory replay, 256 in turn: 11 triples each,
// restating three existing entities of benchCorpus from a new source.
func commitDeltas() [][]Fact {
	delta := make([][]Fact, 256)
	for d := range delta {
		for j := 0; j < 11; j++ {
			delta[d] = append(delta[d], Fact{
				Subject: CanonicalID(fmt.Sprintf("Entity %d", (d*37+j%3*2000)%6100)), Predicate: fmt.Sprintf("p%d", j),
				Object: fmt.Sprintf("w%d", d), Source: fmt.Sprintf("delta-%d", d),
			})
		}
	}
	return delta
}

// BenchmarkGraphCommitAppend measures what one ingest commit costs the graph:
// clone the newest graph and replay one small delta file's operations — 11
// triples restating three existing entities from a new source — at the
// end-to-end benchmark's corpus size. "linear" makes each clone the next
// parent, the engine's history, so every add wins its claim and appends to
// the shared posting lists, the triple columns' shared tail pages and their
// shared page tables in place; "fork" re-clones one parent, so every commit
// after the first loses the claim, reallocates each list it appends to and
// copies the page tables and tail pages it writes, the 32 KiB page of
// triples most of its B/op. B/op is the tracked number. On "linear" it holds
// no term in the lists' length or the history: what is left is the pages of
// posting headers and the keys arrays of the three subjects the commit
// touches, and the posting and key columns' page tables, a term in the entity
// count alone, so it is the same at any -benchtime
// (TestCommitBytesDoNotGrowWithHistory holds it to that). Run via `make
// bench-micro`.
func BenchmarkGraphCommitAppend(b *testing.B) {
	delta := commitDeltas()
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

// TestCommitBytesDoNotGrowWithHistory: along a linear history, what a commit
// allocates does not grow with the commits before it. 600 commits of
// BenchmarkGraphCommitAppend's deltas over benchCorpus, each cloning the one
// before; the median bytes of the last 50 must stay within 1.25 times the
// median of the first 50. It read 192 KB against 42 KB while the key index
// was an overlay map whose unflattened tail every clone copied and each
// clone copied every column's page table; about 20 KB at both ends since
// (x86-64, Go 1.24).
func TestCommitBytesDoNotGrowWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation sizes")
	}
	const (
		commits = 600
		window  = 50
	)
	delta := commitDeltas()
	cur := benchCorpus(t)
	bytes := make([]uint64, commits)
	var before, after runtime.MemStats
	for i := range bytes {
		runtime.ReadMemStats(&before)
		next := cur.Clone()
		for _, f := range delta[i%len(delta)] {
			if _, err := next.AddTriple(f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
		cur = next
	}
	median := func(s []uint64) uint64 {
		s = slices.Clone(s)
		slices.Sort(s)
		return s[len(s)/2]
	}
	first, last := median(bytes[:window]), median(bytes[commits-window:])
	t.Logf("median commit: %d B over commits 0-%d, %d B over commits %d-%d", first, window-1, last, commits-window, commits-1)
	if float64(last) > 1.25*float64(first) {
		t.Fatalf("a commit allocates %d B after %d commits, %d B at the start of the history", last, commits-window, first)
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
