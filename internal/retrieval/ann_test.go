package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// annVariant builds an ANN store over the given pre-embedded corpus.
func annVariant(dim, nprobe int, quantize bool, chunks []Chunk, vecs []Vector) *ANN {
	a := NewANN(Options{Dim: dim, NProbe: nprobe, ANNQuantize: quantize})
	a.AddEmbeddedBatch(chunks, vecs)
	return a
}

// TestANNExactWhenProbingAllCells is the degenerate-equivalence pin: with
// nprobe >= nlist every cell is probed, the candidate set is the whole
// corpus, and the exact re-ranker must reproduce the reference full-sort
// scan bit for bit — scores, IDs and order — including under keep filters.
// This is the ANN analogue of the exactness property the other strategies
// are pinned by.
func TestANNExactWhenProbingAllCells(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(21))
	chunks, vecs := randCorpus(rng, 500, dim)
	for _, quantize := range []bool{false, true} {
		// 1<<20 probes >> nlist, and in quantized mode the per-cell coarse
		// selector keeps 4k >= every cell's population for small cells — use
		// a generous k so the coarse pass cannot drop true candidates.
		a := annVariant(dim, 1<<20, quantize, chunks, vecs)
		keeps := map[string]func(string) bool{
			"nil":   nil,
			"drop0": func(src string) bool { return src != "src-0" },
		}
		for q := 0; q < 6; q++ {
			query := randText(rng)
			qv := Embed(query, dim)
			for keepName, keep := range keeps {
				got := a.SearchVector(qv, 5, keep)
				want := refSearch(chunks, vecs, qv, 5, keep)
				if quantize {
					// The int8 coarse pass may reorder which candidates reach
					// the exact re-ranker; require exact scores and >= 4/5
					// agreement instead of bit-identity.
					if overlap(got, want) < 4 {
						t.Fatalf("quantized all-probe recall too low: got %s want %s",
							fmtHits(got), fmtHits(want))
					}
					assertScoresExact(t, got, chunks, vecs, qv)
					continue
				}
				if !hitsEqual(got, want) {
					t.Fatalf("all-probe ANN diverges (keep=%s, query %q):\n got  %s\n want %s",
						keepName, query, fmtHits(got), fmtHits(want))
				}
			}
		}
	}
}

// overlap counts shared chunk IDs between two hit lists.
func overlap(a, b []Hit) int {
	ids := map[string]bool{}
	for _, h := range a {
		ids[h.Chunk.ID] = true
	}
	n := 0
	for _, h := range b {
		if ids[h.Chunk.ID] {
			n++
		}
	}
	return n
}

// assertScoresExact: every ANN hit's score must be the exact float64 Cosine
// of the query against that chunk's stored vector — the exact-re-rank
// contract (approximation may drop candidates, never perturb scores).
func assertScoresExact(t *testing.T, hits []Hit, chunks []Chunk, vecs []Vector, qv Vector) {
	t.Helper()
	byID := map[string]int{}
	for i := range chunks {
		byID[chunks[i].ID] = i
	}
	for _, h := range hits {
		i, ok := byID[h.Chunk.ID]
		if !ok {
			t.Fatalf("ANN returned unknown chunk %s", h.Chunk.ID)
		}
		if want := Cosine(qv, vecs[i]); h.Score != want {
			t.Fatalf("ANN score for %s = %.17g, exact = %.17g", h.Chunk.ID, h.Score, want)
		}
	}
}

// TestANNRecallAndExactScores measures the real approximate regime (default
// probes on a 3000-chunk corpus): recall@10 against the exact reference must
// clear a floor, scores must be exact, and order must obey the comparator.
func TestANNRecallAndExactScores(t *testing.T) {
	const dim = 64
	const k = 10
	rng := rand.New(rand.NewSource(22))
	chunks, vecs := randCorpus(rng, 3000, dim)
	for _, quantize := range []bool{false, true} {
		a := annVariant(dim, 8, quantize, chunks, vecs)
		total, hit := 0, 0
		for q := 0; q < 20; q++ {
			qv := Embed(randText(rng), dim)
			got := a.SearchVector(qv, k, nil)
			want := refSearch(chunks, vecs, qv, k, nil)
			assertScoresExact(t, got, chunks, vecs, qv)
			for i := 1; i < len(got); i++ {
				if outranks(got[i].Score, got[i].Chunk.ID, &got[i-1]) {
					t.Fatalf("ANN hits out of order at %d: %s", i, fmtHits(got))
				}
			}
			hit += overlap(got, want)
			total += len(want)
		}
		recall := float64(hit) / float64(total)
		if recall < 0.8 {
			t.Fatalf("quantize=%v: recall@%d = %.3f, want >= 0.8 (deterministic corpus — a real regression)",
				quantize, k, recall)
		}
	}
}

// TestANNDeterministic: two independently built ANN stores over the same
// corpus must return identical hits (seeded init, fixed iteration order).
func TestANNDeterministic(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(23))
	chunks, vecs := randCorpus(rng, 800, dim)
	a := annVariant(dim, 4, false, chunks, vecs)
	b := annVariant(dim, 4, false, chunks, vecs)
	for q := 0; q < 10; q++ {
		qv := Embed(randText(rng), dim)
		if ha, hb := a.SearchVector(qv, 7, nil), b.SearchVector(qv, 7, nil); !hitsEqual(ha, hb) {
			t.Fatalf("ANN nondeterministic:\n a %s\n b %s", fmtHits(ha), fmtHits(hb))
		}
	}
}

// TestANNSmallCorpusStaysExact: below the annMinCorpus floor ANN must serve
// the exact flat scan, bit-identical to the reference.
func TestANNSmallCorpusStaysExact(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(24))
	chunks, vecs := randCorpus(rng, annMinCorpus-1, dim)
	a := annVariant(dim, 2, true, chunks, vecs)
	for q := 0; q < 8; q++ {
		qv := Embed(randText(rng), dim)
		got := a.SearchVector(qv, 6, nil)
		want := refSearch(chunks, vecs, qv, 6, nil)
		if !hitsEqual(got, want) {
			t.Fatalf("small-corpus ANN not exact:\n got  %s\n want %s", fmtHits(got), fmtHits(want))
		}
	}
}

// TestANNCloneForAppendIncremental exercises the generation-keyed lazy
// rebuild: a published snapshot's IVF structure is built on first search;
// the clone inherits it copy-on-write, a small append extends (not retrains)
// it on the clone's first search, the parent keeps serving its old corpus
// untouched, and a large append (past the retrain factor) retrains.
func TestANNCloneForAppendIncremental(t *testing.T) {
	const dim = 64
	rng := rand.New(rand.NewSource(25))
	chunks, vecs := randCorpus(rng, 600, dim)
	parent := annVariant(dim, 6, true, chunks, vecs)
	qv := Embed("status delayed typhoon", dim)
	parentHits := parent.SearchVector(qv, 5, nil) // forces the lazy build
	if _, _, covered := parent.IVFStats(); covered != 600 {
		t.Fatalf("parent build covered %d, want 600", covered)
	}
	trainedAt := parent.ivf.trainedAt

	// Small append: the clone must extend the inherited lists, not retrain.
	clone := parent.CloneForAppend().(*ANN)
	extra, extraVecs := randCorpus(rng, 50, dim)
	for i := range extra {
		extra[i].ID = "x-" + extra[i].ID
		clone.AddEmbedded(extra[i], extraVecs[i])
	}
	clone.SearchVector(qv, 5, nil)
	if clone.ivf.trainedAt != trainedAt {
		t.Fatalf("small append retrained: trainedAt %d -> %d", trainedAt, clone.ivf.trainedAt)
	}
	if _, _, covered := clone.IVFStats(); covered != 650 {
		t.Fatalf("clone covered %d, want 650", covered)
	}
	// An appended chunk must be findable through the extended lists.
	probe := clone.SearchVector(extraVecs[0], 3, nil)
	found := false
	for _, h := range probe {
		if h.Chunk.ID == extra[0].ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended chunk not retrievable from extended IVF: %s", fmtHits(probe))
	}
	// Parent unchanged: same length, same hits, same coverage.
	if parent.Len() != 600 {
		t.Fatalf("clone append changed parent length: %d", parent.Len())
	}
	if got := parent.SearchVector(qv, 5, nil); !hitsEqual(got, parentHits) {
		t.Fatalf("clone append changed parent results:\n got  %s\n want %s",
			fmtHits(got), fmtHits(parentHits))
	}
	if _, _, covered := parent.IVFStats(); covered != 600 {
		t.Fatalf("parent coverage changed: %d", covered)
	}

	// Large append: growing past the retrain factor must retrain.
	big := clone.CloneForAppend().(*ANN)
	more, moreVecs := randCorpus(rng, 1000, dim)
	for i := range more {
		more[i].ID = fmt.Sprintf("y%04d-%s", i, more[i].ID)
	}
	big.AddEmbeddedBatch(more, moreVecs)
	big.SearchVector(qv, 5, nil)
	if big.ivf.trainedAt == trainedAt {
		t.Fatalf("large append (%d -> %d) did not retrain", trainedAt, big.Len())
	}
	if _, _, covered := big.IVFStats(); covered != big.Len() {
		t.Fatalf("retrained coverage %d, want %d", covered, big.Len())
	}
}

// TestANNRecallHarnessAgreesWithScoreMAE sanity-checks the two harness
// metrics on a tiny case: perfect agreement means recall 1 and MAE 0.
func TestANNRecallHarnessAgreesWithScoreMAE(t *testing.T) {
	hits := []Hit{{Chunk: Chunk{ID: "a"}, Score: 0.9}, {Chunk: Chunk{ID: "b"}, Score: 0.5}}
	if r := RecallAtK(hits, hits); r != 1 {
		t.Fatalf("self recall = %v", r)
	}
	if mae := ScoreMAE(hits, hits); mae != 0 {
		t.Fatalf("self MAE = %v", mae)
	}
	approx := []Hit{{Chunk: Chunk{ID: "a"}, Score: 0.9}, {Chunk: Chunk{ID: "c"}, Score: 0.4}}
	if r := RecallAtK(approx, hits); r != 0.5 {
		t.Fatalf("recall = %v, want 0.5", r)
	}
	if mae := ScoreMAE(approx, hits); math.Abs(mae-0.05) > 1e-12 {
		t.Fatalf("MAE = %v, want 0.05", mae)
	}
}
