package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"multirag/internal/adapter"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/par"
	"multirag/internal/retrieval"
)

// RetrievalCell is one exact-strategy timing cell of the retrieval
// microbenchmark (per-query mean over the query batch).
type RetrievalCell struct {
	Corpus         string  `json:"corpus"`
	Variant        string  `json:"variant"`
	N              int     `json:"n"`
	PerQueryMicros float64 `json:"per_query_micros"`
	Speedup        float64 `json:"speedup_vs_full_sort,omitempty"`
}

// RetrievalReport is the structured form of the exact retrieval
// microbenchmarks, recorded into BENCH_retrieval.json.
type RetrievalReport struct {
	K       int             `json:"k"`
	Queries int             `json:"queries"`
	Cells   []RetrievalCell `json:"cells"`
}

// Retrieval is the retrieval-layer microbenchmark behind `make
// bench-retrieval`; see RetrievalBenchReport.
func Retrieval(o Options) error {
	_, err := RetrievalBenchReport(o)
	return err
}

// retrievalCorpora are the corpora every retrieval cell is measured on. A
// cell's meaning depends on how sparse the stored vectors are, so the
// 20-word vocabulary (every chunk shares tokens with every query: long
// posting lists, dense score ties) sits next to chunks rendered from the
// datasets generators, whose vectors are as sparse as a served corpus's.
var retrievalCorpora = []struct {
	name  string
	build func(rng *rand.Rand, n, queries int) ([]retrieval.Chunk, []retrieval.Vector, []retrieval.Vector, error)
}{
	{"vocab20", vocabCorpus},
	{"datasets", datasetsCorpus},
}

// RetrievalBenchReport contrasts the seed full-sort scan and a dense
// top-k-selected scan of Cosine against the store's term-at-a-time scorer on
// synthetic corpora, verifying on the way that every variant returns
// identical hits. Options.Scale shrinks the corpus for CI
// smoke runs.
func RetrievalBenchReport(o Options) (*RetrievalReport, error) {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	base := int(20000 * scale)
	if base < 400 {
		base = 400
	}
	sizes := []int{base / 10, base}
	const k = 5
	const queries = 32

	rep := &RetrievalReport{K: k, Queries: queries}
	fmt.Fprintf(o.Out, "Retrieval microbenchmarks (k=%d, %d queries per cell; per-query mean)\n", k, queries)
	for _, corpus := range retrievalCorpora {
		fmt.Fprintf(o.Out, "\ncorpus %s\n%-22s", corpus.name, "variant")
		for _, n := range sizes {
			fmt.Fprintf(o.Out, "  %14s", fmt.Sprintf("n=%d", n))
		}
		fmt.Fprintln(o.Out)

		rng := rand.New(rand.NewSource(int64(seed)))
		var names []string
		results := map[string][]time.Duration{}
		for _, n := range sizes {
			chunks, vecs, qvs, err := corpus.build(rng, n, queries)
			if err != nil {
				return nil, err
			}
			index := retrieval.NewIndex(retrieval.DefaultDim)
			index.AddEmbeddedBatch(chunks, vecs)
			// The first variant is the reference the others must reproduce.
			variants := []struct {
				name   string
				search func(qv retrieval.Vector) []retrieval.Hit
			}{
				{"full-sort scan", func(qv retrieval.Vector) []retrieval.Hit { return fullSortScan(chunks, vecs, qv, k) }},
				{"dense top-k scan", func(qv retrieval.Vector) []retrieval.Hit { return denseTopKScan(chunks, vecs, qv, k) }},
				{"term-at-a-time", func(qv retrieval.Vector) []retrieval.Hit { return index.SearchVector(qv, k, nil) }},
			}
			names = names[:0]
			var want [][]retrieval.Hit
			for _, v := range variants {
				names = append(names, v.name)
				got := make([][]retrieval.Hit, len(qvs))
				start := time.Now()
				for i, qv := range qvs {
					got[i] = v.search(qv)
				}
				results[v.name] = append(results[v.name], time.Since(start)/queries)
				if want == nil {
					want = got
				}
				for i := range got {
					if !sameHits(got[i], want[i]) {
						return nil, fmt.Errorf("retrieval bench: %s diverges from full sort on %s at n=%d query %d", v.name, corpus.name, n, i)
					}
				}
			}
		}
		for _, name := range names {
			fmt.Fprintf(o.Out, "%-22s", name)
			for i, perQuery := range results[name] {
				speedup := 0.0
				suffix := ""
				if name != names[0] && perQuery > 0 {
					speedup = float64(results[names[0]][i]) / float64(perQuery)
					suffix = fmt.Sprintf(" (%4.1fx)", speedup)
				}
				fmt.Fprintf(o.Out, "  %14s", fmt.Sprintf("%s%s", fmtMicros(perQuery), suffix))
				rep.Cells = append(rep.Cells, RetrievalCell{
					Corpus:         corpus.name,
					Variant:        name,
					N:              sizes[i],
					PerQueryMicros: micros(perQuery),
					Speedup:        speedup,
				})
			}
			fmt.Fprintln(o.Out)
		}
	}
	return rep, nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func fmtMicros(d time.Duration) string {
	return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
}

// retrievalVocab mixes high-overlap attribute tokens with entity-like tokens
// so scores tie often and the postings filter sees realistic selectivity.
var retrievalVocab = []string{
	"status", "delayed", "on", "time", "boarding", "gate", "departure",
	"director", "year", "genre", "price", "volume", "airport", "typhoon",
	"harbor", "garden", "monument", "voyage", "crimson", "silent",
}

func retrievalText(rng *rand.Rand) string {
	n := 3 + rng.Intn(8)
	words := make([]string, n)
	for i := range words {
		if rng.Intn(4) == 0 {
			words[i] = fmt.Sprintf("e%04d", rng.Intn(2000)) // entity-ish token
		} else {
			words[i] = retrievalVocab[rng.Intn(len(retrievalVocab))]
		}
	}
	return strings.Join(words, " ")
}

// vocabCorpus draws n chunks and the query batch from retrievalVocab.
func vocabCorpus(rng *rand.Rand, n, queries int) ([]retrieval.Chunk, []retrieval.Vector, []retrieval.Vector, error) {
	chunks := make([]retrieval.Chunk, n)
	vecs := make([]retrieval.Vector, n)
	for i := range chunks {
		chunks[i] = retrieval.Chunk{
			ID:     fmt.Sprintf("bench/d%06d#c0", i),
			DocID:  fmt.Sprintf("bench/d%06d", i),
			Source: fmt.Sprintf("src-%d", i%5),
			Text:   retrievalText(rng),
		}
		vecs[i] = retrieval.Embed(chunks[i].Text, retrieval.DefaultDim)
	}
	qvs := make([]retrieval.Vector, queries)
	for i := range qvs {
		qvs[i] = retrieval.Embed(retrievalText(rng), retrieval.DefaultDim)
	}
	return chunks, vecs, qvs, nil
}

// datasetsCorpus renders the four fusion presets the way the engine ingests
// them (adapter fusion, then core.RenderChunks), with entity counts scaled
// until they yield n chunks, and embeds the presets' own questions as the
// query batch.
func datasetsCorpus(rng *rand.Rand, n, queries int) ([]retrieval.Chunk, []retrieval.Vector, []retrieval.Vector, error) {
	seed := rng.Uint64()
	render := func(mult int) ([]retrieval.Chunk, []string, error) {
		var chunks []retrieval.Chunk
		var questions []string
		for _, spec := range datasets.AllPresets(seed) {
			spec.Entities *= mult
			d, err := datasets.Generate(spec)
			if err != nil {
				return nil, nil, err
			}
			fused, err := adapter.NewRegistry().Fuse(d.Files)
			if err != nil {
				return nil, nil, err
			}
			for _, f := range fused {
				chunks = append(chunks, core.RenderChunks(f, 0)...)
			}
			for _, q := range d.Queries {
				questions = append(questions, q.Text)
			}
		}
		return chunks, questions, nil
	}
	chunks, questions, err := render(1)
	if err == nil && len(chunks) < n {
		chunks, questions, err = render(n/len(chunks) + 1)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	// The presets come out one after another; shuffle before cutting to n so
	// every size holds all four.
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	chunks = chunks[:n]
	vecs := make([]retrieval.Vector, n)
	par.ForEach(0, n, func(i int) {
		vecs[i] = retrieval.Embed(chunks[i].Text, retrieval.DefaultDim)
	})
	qvs := make([]retrieval.Vector, queries)
	for i := range qvs {
		qvs[i] = retrieval.Embed(questions[rng.Intn(len(questions))], retrieval.DefaultDim)
	}
	return chunks, vecs, qvs, nil
}

// fullSortScan reproduces the seed Search implementation: materialise and
// stably full-sort every hit.
func fullSortScan(chunks []retrieval.Chunk, vecs []retrieval.Vector, qv retrieval.Vector, k int) []retrieval.Hit {
	hits := make([]retrieval.Hit, len(chunks))
	for i := range chunks {
		hits[i] = retrieval.Hit{Chunk: chunks[i], Score: retrieval.Cosine(qv, vecs[i])}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Chunk.ID < hits[j].Chunk.ID
	})
	if k > len(hits) {
		k = len(hits)
	}
	return hits[:k]
}

// denseTopKScan is what the store's exact scan was before it scored from
// posting lists: Cosine against every stored vector, the k best kept as it
// goes (in output order; k is small here, so insertion stands in for the
// heap). It is the dense reference the term-at-a-time cells are read against.
func denseTopKScan(chunks []retrieval.Chunk, vecs []retrieval.Vector, qv retrieval.Vector, k int) []retrieval.Hit {
	before := func(a, b *retrieval.Hit) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Chunk.ID < b.Chunk.ID
	}
	best := make([]retrieval.Hit, 0, k+1)
	for i := range chunks {
		hit := retrieval.Hit{Chunk: chunks[i], Score: retrieval.Cosine(qv, vecs[i])}
		if len(best) == k && !before(&hit, &best[k-1]) {
			continue
		}
		pos := sort.Search(len(best), func(j int) bool { return before(&hit, &best[j]) })
		best = append(best, retrieval.Hit{})
		copy(best[pos+1:], best[pos:])
		best[pos] = hit
		best = best[:min(len(best), k)]
	}
	return best
}

func sameHits(a, b []retrieval.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Chunk.ID != b[i].Chunk.ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}
