package retrieval

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"multirag/internal/par"
)

// DefaultNProbe is the number of coarse-quantizer cells an ANN query probes
// when Options.NProbe is unset.
const DefaultNProbe = 8

const (
	// annMinCorpus is the corpus size below which ANN quietly serves the
	// exact flat scan: probing overhead dominates and tiny corpora (the CLI
	// demo, unit fixtures) should stay exact.
	annMinCorpus = 256
	// annTrainCap bounds how many of the first vectors the coarse quantizer
	// trains on; assignment still covers the whole corpus.
	annTrainCap = 16384
	// annKMeansIters is the fixed Lloyd iteration budget. The quantizer only
	// needs cells good enough for high-recall probing, not convergence.
	annKMeansIters = 6
	// annRetrainFactor triggers centroid retraining once the corpus outgrows
	// the size it was trained at by this factor; smaller growth only assigns
	// the appended tail to the existing cells (O(delta), the IsolatedIDs /
	// BuildDelta discipline).
	annRetrainFactor = 2
	// annSeed seeds the deterministic centroid initialisation.
	annSeed = 42
)

// nlistFor picks the coarse-quantizer cell count for a corpus of n vectors:
// the classic sqrt(n) IVF sizing, clamped to something sane.
func nlistFor(n int) int {
	nl := int(math.Sqrt(float64(n)))
	if nl < 1 {
		nl = 1
	}
	if nl > 4096 {
		nl = 4096
	}
	if nl > n {
		nl = n
	}
	return nl
}

// ivfState is the lazily (re)built per-snapshot IVF structure: the k-means
// centroids, one inverted list of chunk ordinals per centroid, and (in
// quantized mode) the int8 mirror of the arena used by the coarse pass.
// covered is the number of arena vectors the lists/mirror account for; a
// published snapshot's index never grows, so covered == Len() means the
// structure is complete and immutable, which is what the lock-free fast path
// in ensureBuilt checks.
type ivfState struct {
	mu      sync.Mutex
	covered atomic.Int64

	nlist     int
	centroids []float32 // nlist rows of dim, unit-normalised
	trainedAt int       // corpus size when the centroids were trained
	lists     [][]int32 // per-centroid chunk ordinals, ascending

	// int8 mirror (quantized mode only): one row of dim per vector plus the
	// per-vector dequantisation scale. Centroid-independent, so it survives
	// retraining and extends O(delta) per generation like the lists.
	q8     []int8
	scales []float32
}

// ANN is the approximate retrieval tier: an IVF coarse quantizer over the
// flat vector arena feeding the exact topK heap as a re-ranker. A query
// scores the query vector against every centroid (4-way unrolled float32
// kernel), probes the nprobe nearest cells in parallel, and every surviving
// candidate is scored with the exact float64 Cosine — so returned scores are
// always exact; the approximation is only in which candidates are considered.
// Optionally the coarse pass inside each probed cell runs over an
// int8-quantized mirror of the arena first, exact-re-ranking only the best
// coarse survivors.
//
// The IVF structure is rebuilt lazily per snapshot generation, the
// IsolatedIDs pattern: CloneForAppend hands the clone clipped copies of the
// inverted lists, and the first search against the published clone assigns
// just the appended tail to the existing cells (full retraining only once
// the corpus outgrows its training size by annRetrainFactor). Chunks and
// vectors follow the embedded Index's lineage token and append in place; the
// IVF lists and the int8 mirror stay clipped per clone, because they are
// extended by whichever reader searches a generation first — several
// generations may do that at once, which is not the single linear writer the
// token relies on.
type ANN struct {
	*Index
	nprobe   int
	quantize bool
	workers  int
	ivf      ivfState
}

// NewANN builds an empty ANN store from opts. Shards is ignored: the IVF tier
// replaces the sharded layout (DESIGN.md §3).
func NewANN(opts Options) *ANN {
	nprobe := opts.NProbe
	if nprobe <= 0 {
		nprobe = DefaultNProbe
	}
	return &ANN{
		Index:    NewIndex(opts.Dim),
		nprobe:   nprobe,
		quantize: opts.ANNQuantize,
		workers:  opts.Workers,
	}
}

// CloneForAppend clones the underlying flat index (shared tail, see
// Index.claim) and hands the clone clipped views of the IVF state, so the
// clone's first post-publish search extends rather than rebuilds (appends to
// a clipped list reallocate privately, never into the receiver's arrays).
func (a *ANN) CloneForAppend() Store {
	clone := &ANN{
		Index:    a.Index.clone(),
		nprobe:   a.nprobe,
		quantize: a.quantize,
		workers:  a.workers,
	}
	a.ivf.mu.Lock()
	clone.ivf.nlist = a.ivf.nlist
	clone.ivf.centroids = a.ivf.centroids
	clone.ivf.trainedAt = a.ivf.trainedAt
	if a.ivf.lists != nil {
		clone.ivf.lists = make([][]int32, len(a.ivf.lists))
		for i, l := range a.ivf.lists {
			clone.ivf.lists[i] = l[:len(l):len(l)]
		}
	}
	clone.ivf.q8 = a.ivf.q8[:len(a.ivf.q8):len(a.ivf.q8)]
	clone.ivf.scales = a.ivf.scales[:len(a.ivf.scales):len(a.ivf.scales)]
	clone.ivf.covered.Store(a.ivf.covered.Load())
	a.ivf.mu.Unlock()
	return clone
}

// Search returns the approximate top-k for the query (exact scores, possibly
// missing candidates — see the type comment).
func (a *ANN) Search(query string, k int) []Hit {
	return a.SearchFiltered(query, k, nil)
}

// SearchFiltered is Search restricted to chunks whose source passes keep.
func (a *ANN) SearchFiltered(query string, k int, keep func(source string) bool) []Hit {
	if k <= 0 || a.Len() == 0 {
		return nil
	}
	return a.SearchVector(Embed(query, a.Dim()), k, keep)
}

// SearchVector probes the nprobe nearest cells and exact-re-ranks the
// survivors. Corpora below annMinCorpus are served by the exact flat scan.
func (a *ANN) SearchVector(qv Vector, k int, keep func(source string) bool) []Hit {
	hits, _ := a.search(context.Background(), qv, k, keep)
	return hits
}

// search stops claiming cells once ctx is done.
func (a *ANN) search(ctx context.Context, qv Vector, k int, keep func(string) bool) ([]Hit, error) {
	n := a.Len()
	if k <= 0 || n == 0 {
		return nil, ctx.Err()
	}
	if n < annMinCorpus {
		return a.Index.search(ctx, qv, k, keep)
	}
	a.ensureBuilt(n)

	probes := a.probe(qv)
	var q8 []int8
	var qscale float32
	if a.quantize {
		q8 = make([]int8, a.dim)
		qscale = quantize8(qv, q8)
	}
	perList := make([][]Hit, len(probes))
	if err := par.ForEachCtx(ctx, a.workers, len(probes), func(i int) {
		perList[i] = a.scanList(probes[i], qv, q8, qscale, k, keep)
	}); err != nil {
		return nil, err
	}
	return mergeTopK(k, perList), nil
}

// probe returns the nprobe cells nearest the query (by dot product against
// the unit centroids), in deterministic (score desc, cell asc) order.
func (a *ANN) probe(qv Vector) []int32 {
	nlist := a.ivf.nlist
	nprobe := a.nprobe
	if nprobe > nlist {
		nprobe = nlist
	}
	type cand struct {
		score float32
		cell  int32
	}
	cands := make([]cand, nlist)
	for c := 0; c < nlist; c++ {
		cands[c] = cand{dot32(qv, a.ivf.centroids[c*a.dim:(c+1)*a.dim]), int32(c)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].cell < cands[j].cell
	})
	out := make([]int32, nprobe)
	for i := range out {
		out[i] = cands[i].cell
	}
	return out
}

// scanList exact-scores one probed cell's candidates into a bounded top-k.
// In quantized mode an int8 coarse pass first narrows the cell to the best
// max(4k, 32) coarse scorers, and only those are exact-re-ranked.
func (a *ANN) scanList(cell int32, qv Vector, q8 []int8, qscale float32, k int, keep func(string) bool) []Hit {
	list := a.ivf.lists[cell]
	t := newTopK(k)
	if q8 == nil {
		for _, ord := range list {
			if keep != nil && !keep(a.chunks[ord].Source) {
				continue
			}
			t.consider(&a.chunks[ord], Cosine(qv, a.arena.at(int(ord))))
		}
		return t.sorted()
	}
	r := 4 * k
	if r < 32 {
		r = 32
	}
	sel := newOrdSel(r)
	dim := a.dim
	for _, ord := range list {
		if keep != nil && !keep(a.chunks[ord].Source) {
			continue
		}
		coarse := float32(dot8(q8, a.ivf.q8[int(ord)*dim:(int(ord)+1)*dim])) * qscale * a.ivf.scales[ord]
		sel.push(coarse, ord)
	}
	for _, ord := range sel.ords[:sel.n] {
		t.consider(&a.chunks[ord], Cosine(qv, a.arena.at(int(ord))))
	}
	return t.sorted()
}

// ensureBuilt brings the IVF structure up to date with the (frozen) corpus of
// this snapshot. Fast path: one atomic load — covered never regresses and a
// published index never grows, so covered == n proves the structure complete
// and the atomic store at the end of the slow path orders its writes before
// any fast-path reader.
func (a *ANN) ensureBuilt(n int) {
	if int(a.ivf.covered.Load()) == n {
		return
	}
	a.ivf.mu.Lock()
	defer a.ivf.mu.Unlock()
	if int(a.ivf.covered.Load()) == n {
		return
	}
	st := &a.ivf
	from := int(a.ivf.covered.Load())
	if st.centroids == nil || n > annRetrainFactor*st.trainedAt {
		a.train(n)
		st.lists = make([][]int32, st.nlist)
		from = 0
	}
	a.assign(from, n)
	if a.quantize {
		a.extendQuantized(from, n)
	}
	st.covered.Store(int64(n))
}

// train runs seeded k-means over the first min(n, annTrainCap) arena vectors:
// deterministic sampled init, a fixed Lloyd budget, spherical centroids
// (means renormalised to unit length, matching the unit-vector corpus).
// Assignment fans out on the worker pool; the mean accumulation is serial in
// point order, so training is deterministic for a fixed corpus prefix.
func (a *ANN) train(n int) {
	st := &a.ivf
	trainN := n
	if trainN > annTrainCap {
		trainN = annTrainCap
	}
	nlist := nlistFor(n)
	dim := a.dim

	rng := rand.New(rand.NewSource(annSeed))
	cents := make([]float32, nlist*dim)
	for c, idx := range rng.Perm(trainN)[:nlist] {
		copy(cents[c*dim:(c+1)*dim], a.arena.at(idx))
	}
	st.centroids = cents
	st.nlist = nlist
	st.trainedAt = n

	assign := make([]int32, trainN)
	sums := make([]float32, nlist*dim)
	counts := make([]int32, nlist)
	for iter := 0; iter < annKMeansIters; iter++ {
		par.ForEach(a.workers, trainN, func(i int) {
			assign[i] = a.nearestCell(a.arena.at(i))
		})
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < trainN; i++ {
			row := sums[int(assign[i])*dim : (int(assign[i])+1)*dim]
			v := a.arena.at(i)
			for d := range row {
				row[d] += v[d]
			}
			counts[assign[i]]++
		}
		for c := 0; c < nlist; c++ {
			if counts[c] == 0 {
				continue // empty cell keeps its previous centroid
			}
			row := sums[c*dim : (c+1)*dim]
			var norm float32
			for _, x := range row {
				norm += x * x
			}
			dst := cents[c*dim : (c+1)*dim]
			if norm == 0 {
				copy(dst, row)
				continue
			}
			inv := float32(1 / math.Sqrt(float64(norm)))
			for d, x := range row {
				dst[d] = x * inv
			}
		}
	}
}

// nearestCell returns the centroid with the highest dot product against v,
// lowest cell winning ties (strict improvement only).
func (a *ANN) nearestCell(v Vector) int32 {
	st := &a.ivf
	best := int32(0)
	bestScore := float32(math.Inf(-1))
	for c := 0; c < st.nlist; c++ {
		if s := dot32(v, st.centroids[c*a.dim:(c+1)*a.dim]); s > bestScore {
			bestScore, best = s, int32(c)
		}
	}
	return best
}

// assign routes arena vectors [from, n) to their nearest cell and appends
// them to the inverted lists in ordinal order (parallel scoring, serial
// appends — deterministic and list-sorted).
func (a *ANN) assign(from, n int) {
	if from >= n {
		return
	}
	cells := make([]int32, n-from)
	par.ForEach(a.workers, n-from, func(i int) {
		cells[i] = a.nearestCell(a.arena.at(from + i))
	})
	for i, c := range cells {
		a.ivf.lists[c] = append(a.ivf.lists[c], int32(from+i))
	}
}

// extendQuantized grows the int8 mirror to cover arena vectors [from, n).
func (a *ANN) extendQuantized(from, n int) {
	st := &a.ivf
	dim := a.dim
	if len(st.q8) > from*dim {
		// Retraining reset from to 0 but the mirror is centroid-independent;
		// only the uncovered tail needs quantizing.
		from = len(st.q8) / dim
	}
	if from >= n {
		return
	}
	q8 := st.q8
	need := n * dim
	if cap(q8) < need {
		grown := make([]int8, len(q8), need)
		copy(grown, q8)
		q8 = grown
	}
	q8 = q8[:need]
	scales := append(st.scales, make([]float32, n-from)...)
	par.ForEach(a.workers, n-from, func(i int) {
		ord := from + i
		scales[ord] = quantize8(a.arena.at(ord), q8[ord*dim:(ord+1)*dim])
	})
	st.q8, st.scales = q8, scales
}

// IVFStats reports the built coarse-quantizer shape (cells, probes per query,
// vectors covered) for the benchmark harness; zero cells means no ANN search
// has run against this snapshot yet.
func (a *ANN) IVFStats() (nlist, nprobe, covered int) {
	a.ivf.mu.Lock()
	defer a.ivf.mu.Unlock()
	return a.ivf.nlist, a.nprobe, int(a.ivf.covered.Load())
}

// RecallAtK is the harness metric for ANN configurations: the fraction of
// the exact top-k (want) that the approximate result (got) recovered,
// matched by chunk ID. An empty exact result counts as perfect recall.
func RecallAtK(got, want []Hit) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[string]bool, len(got))
	for _, h := range got {
		ids[h.Chunk.ID] = true
	}
	n := 0
	for _, h := range want {
		if ids[h.Chunk.ID] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

// ScoreMAE is the companion error metric: mean absolute difference between
// the approximate and exact score at each rank (per-hit scores are exact
// under the re-rank contract, so a non-zero MAE measures pure ranking drift
// — stronger candidates the probe missed). Ranks beyond the shorter list are
// charged the exact score at that rank, so returning too few hits is an
// error, not a discount.
func ScoreMAE(got, want []Hit) float64 {
	if len(want) == 0 {
		return 0
	}
	var sum float64
	for i := range want {
		if i < len(got) {
			sum += math.Abs(got[i].Score - want[i].Score)
		} else {
			sum += math.Abs(want[i].Score)
		}
	}
	return sum / float64(len(want))
}

// ordSel is the bounded coarse-pass selector of the quantized path: it keeps
// the r best (score, ordinal) pairs in a min-heap whose root is the weakest
// kept pair (lowest coarse score; among equal scores, highest ordinal — so
// the kept set is deterministic for any scan order over distinct ordinals).
type ordSel struct {
	r      int
	n      int
	scores []float32
	ords   []int32
}

func newOrdSel(r int) *ordSel {
	return &ordSel{r: r, scores: make([]float32, 0, r), ords: make([]int32, 0, r)}
}

// weakerPair reports whether (sa, oa) is evicted before (sb, ob).
func weakerPair(sa float32, oa int32, sb float32, ob int32) bool {
	if sa != sb {
		return sa < sb
	}
	return oa > ob
}

func (s *ordSel) push(score float32, ord int32) {
	if s.n < s.r {
		s.scores = append(s.scores, score)
		s.ords = append(s.ords, ord)
		s.n++
		i := s.n - 1
		for i > 0 {
			p := (i - 1) / 2
			if !weakerPair(s.scores[i], s.ords[i], s.scores[p], s.ords[p]) {
				break
			}
			s.scores[i], s.scores[p] = s.scores[p], s.scores[i]
			s.ords[i], s.ords[p] = s.ords[p], s.ords[i]
			i = p
		}
		return
	}
	if weakerPair(score, ord, s.scores[0], s.ords[0]) {
		return
	}
	s.scores[0], s.ords[0] = score, ord
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < s.n && weakerPair(s.scores[l], s.ords[l], s.scores[least], s.ords[least]) {
			least = l
		}
		if r := 2*i + 2; r < s.n && weakerPair(s.scores[r], s.ords[r], s.scores[least], s.ords[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.scores[i], s.scores[least] = s.scores[least], s.scores[i]
		s.ords[i], s.ords[least] = s.ords[least], s.ords[i]
		i = least
	}
}
