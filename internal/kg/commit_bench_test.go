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
func benchCorpus(tb testing.TB) *Graph { return corpus(tb, 6100) }

// corpus is benchCorpus's shape at another entity count.
func corpus(tb testing.TB, entities int) *Graph {
	return lineageGraph(tb, entities, 11, 12, 0).Clone()
}

// commitDeltas returns the small delta files BenchmarkGraphCommitAppend and
// the CommitBytes tests replay, 256 in turn: 11 triples each, restating three
// existing entities of benchCorpus from a new source.
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
// the shared key lists, the triple columns' shared tail pages and their
// shared page tables in place; "fork" re-clones one parent, so every commit
// after the first loses the claim, reallocates each list it appends to and
// copies the page tables and tail pages it writes, the 32 KiB page of
// triples most of its B/op. B/op is the tracked number. On "linear" it holds
// no term in the lists' length, the history or the entity count: what is
// left is the graph header, the key index's root (one pointer per 512
// entities), a leaf, a 16-row page and the keys array of each of the three
// subjects the commit touches, the lists it appends to where they run out
// of room, and a 32 KiB page of triples every 46 commits, so it is the same
// at any -benchtime (TestCommitBytesDoNotGrowWithHistory) and any corpus
// size (TestCommitBytesDoNotDependOnEntityCount). Run via `make
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

// linearCommitBytes replays commits of commitDeltas' deltas along a linear
// history from cur, each commit cloning the one before, and returns what
// each allocated.
func linearCommitBytes(tb testing.TB, cur *Graph, commits int) []uint64 {
	delta := commitDeltas()
	bytes := make([]uint64, commits)
	var before, after runtime.MemStats
	for i := range bytes {
		runtime.ReadMemStats(&before)
		next := cur.Clone()
		for _, f := range delta[i%len(delta)] {
			if _, err := next.AddTriple(f); err != nil {
				tb.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
		cur = next
	}
	return bytes
}

func median(s []uint64) uint64 {
	s = slices.Clone(s)
	slices.Sort(s)
	return s[len(s)/2]
}

// TestCommitBytesDoNotGrowWithHistory: along a linear history, what a commit
// allocates does not grow with the commits before it. 600 commits of
// BenchmarkGraphCommitAppend's deltas over benchCorpus, each cloning the one
// before; the median bytes of the last 50 must stay within 1.25 times the
// median of the first 50. It read 192 KB against 42 KB while the key index
// was an overlay map whose unflattened tail every clone copied and each
// clone copied every column's page table; about 20 KB at both ends while
// the row columns had 64-row pages and a bySubject index, and about 5.5 KB
// since (x86-64, Go 1.24).
func TestCommitBytesDoNotGrowWithHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation sizes")
	}
	const (
		commits = 600
		window  = 50
	)
	bytes := linearCommitBytes(t, benchCorpus(t), commits)
	first, last := median(bytes[:window]), median(bytes[commits-window:])
	t.Logf("median commit: %d B over commits 0-%d, %d B over commits %d-%d", first, window-1, last, commits-window, commits-1)
	if float64(last) > 1.25*float64(first) {
		t.Fatalf("a commit allocates %d B after %d commits, %d B at the start of the history", last, commits-window, first)
	}
}

// TestCommitBytesDoNotDependOnEntityCount: what a linear commit allocates in
// the graph does not grow with the entities it does not touch. The median of
// 100 linear commits of BenchmarkGraphCommitAppend's deltas over benchCorpus
// (6,100 entities) and over the same shape at 24,400 must stay within 1.15
// times of each other. It read 20.1 against 36.6 KB (1.82x) while each clone
// copied the posting and key columns' page tables and a commit wrote
// 64-row pages of three entity indexes; the root of leaves a commit copies
// now is one pointer per 512 entities.
func TestCommitBytesDoNotDependOnEntityCount(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation sizes")
	}
	const commits = 100
	small := median(linearCommitBytes(t, corpus(t, 6100), commits))
	large := median(linearCommitBytes(t, corpus(t, 4*6100), commits))
	t.Logf("median commit: %d B over 6,100 entities, %d B over 24,400", small, large)
	if float64(large) > 1.15*float64(small) {
		t.Fatalf("a commit allocates %d B over 24,400 entities, %d B over 6,100", large, small)
	}
}

// BenchmarkCOWPagePrivatize measures the first write to a shared unit, the
// unit of copy-on-write cost: a 512-row scalar page, and a clone's first
// write to one entity's row at benchCorpus's entity count — the row
// column's root, a leaf and a 16-row page — appending to the row's 11-handle
// list in place (the lineage) or clipping and reallocating it (after a
// fork).
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
	for _, fork := range []bool{false, true} {
		name := "rows"
		if fork {
			name = "rows-forked"
		}
		b.Run(name, func(b *testing.B) {
			var c rowCol[[]int32]
			for i := int32(0); i < 6100; i++ {
				for v := int32(0); v < 11; v++ {
					appendPosting(&c, i, v)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := c.clone()
				if fork {
					w.forked()
				}
				appendPosting(&w, 7, int32(i))
			}
		})
	}
}
