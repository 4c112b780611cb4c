package retrieval

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// backing returns the address of s's backing array (nil without one), so a
// test can tell an append in place from a reallocation.
func backing[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

// reserve gives ix's chunk slice and every posting list room for n more rows,
// so whether an append happened in place shows in the backing addresses.
func reserve(ix *Index, n int) {
	ix.chunks = slices.Grow(ix.chunks, n)
	for b := range ix.post.lists {
		ix.post.lists[b] = slices.Grow(ix.post.lists[b], n)
	}
}

// TestIndexCloneForAppendIsolation is the copy-on-write contract at the Index
// level, and the lineage-token contract behind it: the first clone to append
// continues in place behind the parent's len (same chunk and posting-list
// arrays, same token), every other appender — a second clone of the same
// parent, the parent itself — forks, clipping the chunk slice and every list
// so that only what it then appends to is copied, and nobody's appends ever
// change what anybody else serves, including once a lineage outgrows its
// arrays' capacity.
func TestIndexCloneForAppendIsolation(t *testing.T) {
	const dim = 8
	parent := NewIndex(dim)
	baseC, baseV := markedRows("base", 300, dim, 1)
	parent.AddEmbeddedBatch(baseC[:8], baseV[:8])
	parent.AddEmbeddedBatch(baseC[8:], baseV[8:])
	reserve(parent, 64)
	// A one-row run from markedRows writes buckets 0 (its mark) and 1 only,
	// so the single-row appends below leave bucket 2's list alone.
	shares := func(ix *Index, b int) bool { return backing(ix.post.lists[b]) == backing(parent.post.lists[b]) }

	first := parent.CloneForAppend()
	firstC, firstV := markedRows("first", 1, dim, -1)
	first.AddEmbeddedBatch(firstC, firstV)
	if first.lin != parent.lin || backing(first.chunks) != backing(parent.chunks) || !shares(first, 0) || !shares(first, 1) {
		t.Fatal("first clone of the newest snapshot must append in place on the shared lineage")
	}

	// A second clone of the same parent finds the tail claimed and forks: a
	// fresh token, a private chunk array and a private copy of each list it
	// appends to; the lists it leaves alone keep the parent's arrays.
	second := parent.CloneForAppend()
	secondC, secondV := markedRows("second", 1, dim, -2)
	second.AddEmbeddedBatch(secondC, secondV)
	if second.lin == parent.lin || backing(second.chunks) == backing(parent.chunks) {
		t.Fatal("second clone of one parent must fork to a private chunk array and a fresh token")
	}
	if shares(second, 0) || shares(second, 1) || !shares(second, 2) {
		t.Fatal("a fork must copy exactly the posting lists it appends to")
	}

	// The parent appending after it was cloned forks too.
	old := *parent
	lateC, lateV := markedRows("late", 1, dim, -3)
	parent.addEmbedded(lateC[0], lateV[0])
	if parent.lin == old.lin {
		t.Fatal("parent appending behind a claimed tail must fork")
	}

	// Push the first lineage past its reserved capacity, one row at a time
	// and then in one batch: the arrays it outgrows are reallocated, the
	// lineage is not.
	moreC, moreV := markedRows("more", 2*64, dim, -4)
	for i := range moreC[:50] {
		first.addEmbedded(moreC[i], moreV[i])
	}
	if backing(first.chunks) != backing(old.chunks) {
		t.Fatal("linear appends within the reserved capacity must stay in the parent's chunk array")
	}
	grandchild := first.CloneForAppend()
	grandchild.AddEmbeddedBatch(moreC[50:], moreV[50:])
	if grandchild.lin != first.lin {
		t.Fatal("linear history must stay on one lineage across a capacity boundary")
	}

	assertRows(t, "parent as cloned", &old, [][]Chunk{baseC}, [][]Vector{baseV})
	assertRows(t, "parent", parent, [][]Chunk{baseC, lateC}, [][]Vector{baseV, lateV})
	assertRows(t, "second", second, [][]Chunk{baseC, secondC}, [][]Vector{baseV, secondV})
	assertRows(t, "first", first, [][]Chunk{baseC, firstC, moreC[:50]}, [][]Vector{baseV, firstV, moreV[:50]})
	assertRows(t, "grandchild", grandchild, [][]Chunk{baseC, firstC, moreC}, [][]Vector{baseV, firstV, moreV})

	// Postings followed: a query on a bucket only "second" wrote finds it
	// there and nowhere else.
	for name, ix := range map[string]*Index{"parent": parent, "first": first, "second": second, "grandchild": grandchild} {
		want := 0
		if name == "second" {
			want = 1
		}
		n := 0
		for _, e := range ix.post.lists[0] {
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
// leaves abandoned after they claimed the tail, batches that outgrow the
// arrays' capacity — and after every step checks every node ever
// created against a deep-copy oracle. Shared-tail appends are only correct if
// no node's rows can change once written; this is the test that would see it.
func TestCloneTreeMatchesDeepCopyOracle(t *testing.T) {
	const dim = 16
	steps := 24
	if testing.Short() {
		steps = 12
	}
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
			switch op := rng.Intn(5); {
			case op == 0:
				// Append to an existing node directly; it may already have
				// been cloned from.
				for i := range cs {
					at.st.addEmbedded(cs[i], vs[i])
				}
				*at = *at.extended(at.st, cs, vs)
			case op == 1:
				clone := at.st.CloneForAppend()
				for i := range cs {
					clone.addEmbedded(cs[i], vs[i])
				}
				nodes = append(nodes, at.extended(clone, cs, vs))
			default:
				clone := at.st.CloneForAppend()
				clone.AddEmbeddedBatch(cs, vs)
				nodes = append(nodes, at.extended(clone, cs, vs))
			}
			for i, nd := range nodes {
				nd.check(t, fmt.Sprintf("seed %d step %d node %d", seed, step, i), queries)
			}
		}
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
// len, the committer writes past it.
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
		next := cur.CloneForAppend()
		bc, bv := randCorpus(rng, 4, dim)
		for i := range bc {
			bc[i].ID = fmt.Sprintf("c%04d-%d#c0", c, i)
		}
		next.AddEmbeddedBatch(bc, bv)
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
