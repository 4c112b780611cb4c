package retrieval

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// markedRows returns n chunks whose vectors carry mark in bucket 0, so a test
// can tell whose append a row came from.
func markedRows(prefix string, n, dim int, mark float32) ([]Chunk, []Vector) {
	cs := make([]Chunk, n)
	vs := make([]Vector, n)
	for i := range cs {
		cs[i] = Chunk{ID: fmt.Sprintf("%s-%03d#c0", prefix, i), Source: prefix, Text: prefix}
		vs[i] = make(Vector, dim)
		vs[i][0] = mark
		vs[i][1+i%(dim-1)] = 1
	}
	return cs, vs
}

// assertRows checks that ix holds exactly the given runs of rows, in order.
func assertRows(t *testing.T, name string, ix *Index, cs [][]Chunk, vs [][]Vector) {
	t.Helper()
	var wantC []Chunk
	var wantV []Vector
	for r := range cs {
		wantC = append(wantC, cs[r]...)
		wantV = append(wantV, vs[r]...)
	}
	if ix.Len() != len(wantC) {
		t.Fatalf("%s: len = %d, want %d", name, ix.Len(), len(wantC))
	}
	row := 0
	ix.ForEachEmbedded(func(c Chunk, v Vector) {
		if c.ID != wantC[row].ID {
			t.Fatalf("%s: row %d is %s, want %s", name, row, c.ID, wantC[row].ID)
		}
		for d, x := range v {
			if x != wantV[row][d] {
				t.Fatalf("%s: row %d bucket %d = %v, want %v", name, row, d, x, wantV[row][d])
			}
		}
		row++
	})
}

// blockAt returns the address of block k's first row in l: what tells a
// shared block from a copy.
func blockAt[T any](l *blocks[T], k int) *T { return &l.sp.b[k][0] }

// copiedBlocks returns how many of the blocks that from read — its full
// blocks and its partly filled tail — l no longer shares with it, and whether
// only from's partly filled tail is among them. l is from's descendant: from
// itself later, or a clone of it.
func copiedBlocks[T any](from, l *blocks[T]) (copied int, tailOnly bool) {
	if from.len() == 0 {
		return 0, true
	}
	last, off := locate(from.len() - 1)
	tailOnly = true
	for k := 0; k <= last; k++ {
		if blockAt(l, k) != blockAt(from, k) {
			copied++
			tailOnly = tailOnly && k == last && off < blockRows(k)-1
		}
	}
	return copied, tailOnly
}

// assertForkCopies checks that l, a descendant of from, copied at most one
// block of from's storage and only a partly filled tail.
func assertForkCopies[T any](t *testing.T, name string, from, l *blocks[T]) {
	t.Helper()
	if n, tailOnly := copiedBlocks(from, l); n > 1 || !tailOnly {
		t.Fatalf("%s: copied %d blocks of the storage it was cloned from, want at most its partly filled tail", name, n)
	}
}

// TestIndexCloneForAppendIsolation is the copy-on-write contract at the Index
// level, and the lineage-token contract behind it: the first clone to append
// continues in place behind the parent's len (same spines and blocks, same
// token), also across a block boundary, where the fresh block's pointer goes
// into the shared spine; every other appender — a second clone of the same
// parent, the parent itself — forks, in the middle of a block here, and
// copies, of each column it then appends to, the partly filled tail block
// only, by address; and nobody's appends ever change what anybody else
// serves, including a batch that spans several blocks.
func TestIndexCloneForAppendIsolation(t *testing.T) {
	const dim = 8
	parent := NewIndex(dim)
	baseC, baseV := markedRows("base", 300, dim, 1)
	parent.AddEmbeddedBatch(baseC[:8], baseV[:8])
	parent.AddEmbeddedBatch(baseC[8:], baseV[8:])
	// 300 rows end 52 rows into the chunk column's sixth block (rows 248 to
	// 375), and into bucket 0's list's, which every row writes.
	if k, off := locate(parent.Len()); k != 5 || off != 52 || parent.post.lists[0].len() != 300 {
		t.Fatalf("test needs the parent's tail 52 rows into block 5, got block %d offset %d", k, off)
	}
	// A one-row run from markedRows writes buckets 0 (its mark) and 1 only,
	// so the single-row appends below leave bucket 2's list alone.
	// shares reports whether ix's list b holds its last row in the parent's
	// block.
	shares := func(ix *Index, b int) bool {
		k, _ := locate(ix.post.lists[b].len() - 1)
		return blockAt(&ix.post.lists[b], k) == blockAt(&parent.post.lists[b], k)
	}

	first := parent.CloneForAppend()
	firstC, firstV := markedRows("first", 1, dim, -1)
	first.AddEmbeddedBatch(firstC, firstV)
	if first.lin != parent.lin || blockAt(&first.chunks, 5) != blockAt(&parent.chunks, 5) || !shares(first, 0) || !shares(first, 1) {
		t.Fatal("first clone of the newest snapshot must append in place on the shared lineage")
	}

	// A second clone of the same parent finds the tail claimed and forks, in
	// the middle of a block: a fresh token, and a private copy of the partly
	// filled tail block of each column it appends to, the full blocks before
	// it still the parent's; the lists it leaves alone keep the parent's
	// spine.
	second := parent.CloneForAppend()
	secondC, secondV := markedRows("second", 1, dim, -2)
	second.AddEmbeddedBatch(secondC, secondV)
	if second.lin == parent.lin || blockAt(&second.chunks, 5) == blockAt(&parent.chunks, 5) {
		t.Fatal("second clone of one parent must fork to a private tail block and a fresh token")
	}
	if shares(second, 0) || shares(second, 1) || second.post.lists[2].sp != parent.post.lists[2].sp {
		t.Fatal("a fork must copy exactly the tail blocks of the lists it appends to")
	}
	assertForkCopies(t, "second's chunks", &parent.chunks, &second.chunks)
	for b := range second.post.lists {
		assertForkCopies(t, fmt.Sprintf("second's list %d", b), &parent.post.lists[b], &second.post.lists[b])
	}

	// The parent appending after it was cloned forks too.
	old := *parent
	lateC, lateV := markedRows("late", 1, dim, -3)
	parent.addEmbedded(lateC[0], lateV[0])
	if parent.lin == old.lin {
		t.Fatal("parent appending behind a claimed tail must fork")
	}
	assertForkCopies(t, "parent's chunks", &old.chunks, &parent.chunks)

	// Push the first lineage across the chunk block boundary at row 376 one
	// row at a time, then on by a batch spanning three blocks: the
	// lineage and every block it read stay as they were, and the first fresh
	// block's pointer goes into the shared spine.
	moreC, moreV := markedRows("more", 380, dim, -4)
	for i := range moreC[:80] {
		first.addEmbedded(moreC[i], moreV[i])
	}
	if first.lin != old.lin || first.chunks.sp != old.chunks.sp {
		t.Fatal("a claimant crossing a block boundary must stay on the lineage and in the shared spine")
	}
	grandchild := first.CloneForAppend()
	grandchild.AddEmbeddedBatch(moreC[80:], moreV[80:])
	if grandchild.lin != first.lin {
		t.Fatal("linear history must stay on one lineage across blocks")
	}
	if n, _ := copiedBlocks(&first.chunks, &grandchild.chunks); n != 0 {
		t.Fatalf("a claimant's batch copied %d blocks", n)
	}
	if k, _ := locate(first.Len()); k != 6 {
		t.Fatalf("first ends in block %d, want 6", k)
	}
	if k, _ := locate(grandchild.Len() - 1); k != 8 {
		t.Fatalf("the batch ends in block %d, want 8", k)
	}

	assertRows(t, "parent as cloned", &old, [][]Chunk{baseC}, [][]Vector{baseV})
	assertRows(t, "parent", parent, [][]Chunk{baseC, lateC}, [][]Vector{baseV, lateV})
	assertRows(t, "second", second, [][]Chunk{baseC, secondC}, [][]Vector{baseV, secondV})
	assertRows(t, "first", first, [][]Chunk{baseC, firstC, moreC[:80]}, [][]Vector{baseV, firstV, moreV[:80]})
	assertRows(t, "grandchild", grandchild, [][]Chunk{baseC, firstC, moreC}, [][]Vector{baseV, firstV, moreV})

	// Postings followed: a query on a bucket only "second" wrote finds it
	// there and nowhere else.
	for name, ix := range map[string]*Index{"parent": parent, "first": first, "second": second, "grandchild": grandchild} {
		want := 0
		if name == "second" {
			want = 1
		}
		n := 0
		for _, e := range ix.post.lists[0].rows() {
			if e.w == -2 {
				n++
			}
		}
		if n != want {
			t.Fatalf("%s: %d postings for the second clone's row, want %d", name, n, want)
		}
	}
}

// oracleNode pairs a store somewhere in a clone tree with a deep copy of what
// it must contain, in insertion order.
type oracleNode struct {
	st     *Index
	chunks []Chunk
	vecs   []Vector
}

func (o *oracleNode) extended(st *Index, cs []Chunk, vs []Vector) *oracleNode {
	n := &oracleNode{st: st}
	n.chunks = append(append(n.chunks, o.chunks...), cs...)
	for _, v := range o.vecs {
		n.vecs = append(n.vecs, append(Vector(nil), v...))
	}
	for _, v := range vs {
		n.vecs = append(n.vecs, append(Vector(nil), v...))
	}
	return n
}

// check compares the node against its oracle: enumeration against the deep
// copy row for row, searches against the reference full-sort scan.
func (o *oracleNode) check(t *testing.T, label string, queries []Vector) {
	t.Helper()
	if o.st.Len() != len(o.chunks) {
		t.Fatalf("%s: Len = %d, oracle %d", label, o.st.Len(), len(o.chunks))
	}
	i := 0
	o.st.ForEachEmbedded(func(c Chunk, v Vector) {
		if i >= len(o.chunks) {
			t.Fatalf("%s: enumerated more than the oracle's %d rows", label, len(o.chunks))
		}
		if c != o.chunks[i] {
			t.Fatalf("%s: row %d = %+v, oracle %+v", label, i, c, o.chunks[i])
		}
		for d := range o.vecs[i] {
			if v[d] != o.vecs[i][d] {
				t.Fatalf("%s: row %d (%s) bucket %d = %v, oracle %v", label, i, c.ID, d, v[d], o.vecs[i][d])
			}
		}
		i++
	})
	if i != len(o.chunks) {
		t.Fatalf("%s: enumerated %d rows, oracle %d", label, i, len(o.chunks))
	}
	keeps := []func(string) bool{nil, func(src string) bool { return src != "src-1" }}
	for qi, qv := range queries {
		keep := keeps[qi%len(keeps)]
		if g, w := o.st.SearchVector(qv, 7, keep), refSearch(o.chunks, o.vecs, qv, 7, keep); !hitsEqual(g, w) {
			t.Fatalf("%s: query %d:\n got  %s\n want %s", label, qi, fmtHits(g), fmtHits(w))
		}
	}
}

// TestCloneTreeMatchesDeepCopyOracle grows seeded random trees of
// CloneForAppend / single-chunk and batch appends — linear chains, several
// clones of one parent all appending, parents appended to after being cloned,
// leaves abandoned after they claimed the tail, appends that cross a block
// boundary, forks in the middle of a block, batches that span several blocks
// — and after every step checks every node ever created against a deep-copy
// oracle, and the appending node's storage against what it was cloned from:
// of each column, at most the partly filled tail block may be a copy.
// Shared-tail appends are only correct if no node's rows can change once
// written; this is the test that would see it.
func TestCloneTreeMatchesDeepCopyOracle(t *testing.T) {
	const dim = 16
	steps := 24
	if testing.Short() {
		steps = 12
	}
	// What the trees exercised, over all seeds: appends whose rows cross a
	// chunk block boundary, forks whose first row lands inside a block, and
	// batches spanning three blocks or more.
	var crossed, midForks, spanning int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nextID := 0
		rows := func(n int) ([]Chunk, []Vector) {
			cs, vs := randCorpus(rng, n, dim)
			for i := range cs {
				cs[i].ID = fmt.Sprintf("n%06d#c0", nextID)
				nextID++
			}
			return cs, vs
		}
		queries := make([]Vector, 4)
		for i := range queries {
			queries[i] = Embed(randText(rng), dim)
		}

		root := &oracleNode{st: NewIndex(dim)}
		if n := rng.Intn(3) * 120; n > 0 {
			cs, vs := rows(n)
			root.st.AddEmbeddedBatch(cs, vs)
			root = (&oracleNode{}).extended(root.st, cs, vs)
		}
		nodes := []*oracleNode{root}
		for step := 0; step < steps; step++ {
			at := nodes[rng.Intn(len(nodes))]
			if rng.Intn(3) == 0 {
				at = nodes[len(nodes)-1] // bias towards the linear history the engine runs
			}
			n := 1 + rng.Intn(12)
			if rng.Intn(6) == 0 {
				n = 150 + rng.Intn(100) // large enough to outgrow spare capacity more often than not
			}
			cs, vs := rows(n)
			from := *at.st
			var st *Index
			switch op := rng.Intn(5); {
			case op == 0:
				// Append to an existing node directly; it may already have
				// been cloned from.
				for i := range cs {
					at.st.addEmbedded(cs[i], vs[i])
				}
				st = at.st
				*at = *at.extended(at.st, cs, vs)
			case op == 1:
				st = at.st.CloneForAppend()
				for i := range cs {
					st.addEmbedded(cs[i], vs[i])
				}
				nodes = append(nodes, at.extended(st, cs, vs))
			default:
				st = at.st.CloneForAppend()
				st.AddEmbeddedBatch(cs, vs)
				nodes = append(nodes, at.extended(st, cs, vs))
			}
			label := fmt.Sprintf("seed %d step %d", seed, step)
			assertForkCopies(t, label+" chunks", &from.chunks, &st.chunks)
			for b := range st.post.lists {
				assertForkCopies(t, fmt.Sprintf("%s list %d", label, b), &from.post.lists[b], &st.post.lists[b])
			}
			kFirst, off := locate(from.Len())
			kLast, _ := locate(st.Len() - 1)
			if kLast > kFirst || off == 0 && from.Len() > 0 {
				crossed++
			}
			if st.lin != from.lin && off != 0 {
				midForks++
			}
			if kLast-kFirst >= 2 {
				spanning++
			}
			for i, nd := range nodes {
				nd.check(t, fmt.Sprintf("%s node %d", label, i), queries)
			}
		}
	}
	if crossed == 0 || midForks == 0 || spanning == 0 {
		t.Fatalf("the trees crossed a block boundary %d times, forked mid-block %d times and spanned three blocks %d times; want each",
			crossed, midForks, spanning)
	}
}

// TestScansDuringInPlaceAppends is the race-detector half of the shared-tail
// argument: readers keep scanning snapshots captured at different generations
// while the committer clones the newest snapshot and appends behind it in
// place, a few hundred commits in a row. Every reader's hits must stay
// bit-identical to the dense reference over the rows its snapshot held when
// it was captured — a posting list's length is what keeps a descendant's
// rows out of an older generation's scores and enumeration — and
// `go test -race` must see no conflicting access: readers stop at their own
// len, the committer writes past it. The commits cross block boundaries of
// every column, and halfway through one is abandoned after it claimed the
// tail, so the committer forks in the middle of a block and goes on in the
// copies of the tail blocks while readers still scan the shared ones.
func TestScansDuringInPlaceAppends(t *testing.T) {
	const (
		dim     = 16
		commits = 240
		readers = 6
	)
	rng := rand.New(rand.NewSource(9))
	cur := NewIndex(dim)
	cs, vs := randCorpus(rng, 200, dim)
	cur.AddEmbeddedBatch(cs, vs)
	qv := Embed("status delayed typhoon gate", dim)
	keep := func(src string) bool { return src != "src-2" }

	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		scans atomic.Int64
	)
	for c := 0; c < commits; c++ {
		if c%(commits/readers) == 0 {
			// cs/vs only ever grow by appending, so these prefixes are the
			// generation's rows for good.
			snap, want := cur, refSearch(cs, vs, qv, 10, keep)
			wg.Add(1)
			go func(gen int) {
				defer wg.Done()
				for !stop.Load() {
					if got := snap.SearchVector(qv, 10, keep); !hitsEqual(got, want) {
						t.Errorf("snapshot of generation %d changed under its reader:\n got  %s\n want %s",
							gen, fmtHits(got), fmtHits(want))
						return
					}
					n := 0
					snap.ForEachEmbedded(func(Chunk, Vector) { n++ })
					if n != snap.Len() {
						t.Errorf("generation %d enumerated %d rows, Len %d", gen, n, snap.Len())
						return
					}
					scans.Add(1)
				}
			}(c)
		}
		if c == commits/2 {
			if _, off := locate(cur.Len()); off == 0 {
				t.Fatal("test needs the fork to land inside a block")
			}
			ac, av := randCorpus(rng, 4, dim)
			cur.CloneForAppend().AddEmbeddedBatch(ac, av) // claims the tail, then is dropped
		}
		next := cur.CloneForAppend()
		bc, bv := randCorpus(rng, 4, dim)
		for i := range bc {
			bc[i].ID = fmt.Sprintf("c%04d-%d#c0", c, i)
		}
		next.AddEmbeddedBatch(bc, bv)
		if forked := next.lin != cur.lin; forked != (c == commits/2) {
			t.Fatalf("commit %d: forked %v", c, forked)
		}
		cur = next
		cs, vs = append(cs, bc...), append(vs, bv...)
		// One CPU is common here: wait until some reader finished a scan
		// since this commit, so scans and appends really interleave.
		for seen := scans.Load(); scans.Load() == seen && !t.Failed(); {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if cur.Len() != 200+4*commits {
		t.Fatalf("committer lost rows: %d", cur.Len())
	}
}
