package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// cosine is the dot product of two equally sized vectors, in float64: the
// cosine similarity of normalised ones.
func cosine(a, b retrieval.Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return dot
}

// denseTopK is the exact scan as it was first written: cosine against every
// stored vector, stable full sort by (score desc, chunk ID asc), first k.
func denseTopK(ix *retrieval.Index, qv retrieval.Vector, k int) []retrieval.Hit {
	var hits []retrieval.Hit
	ix.ForEachEmbedded(func(c retrieval.Chunk, v retrieval.Vector) {
		hits = append(hits, retrieval.Hit{Chunk: c, Score: cosine(qv, v)})
	})
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Chunk.ID < hits[j].Chunk.ID
	})
	return hits[:min(k, len(hits))]
}

// TestFallbackAnswersMatchDenseOracle: free text the grammar cannot parse is
// answered from chunk retrieval alone, so every scan the engine runs for it
// must equal the dense reference over the stored vectors — scores bit for
// bit — on a datasets corpus: k = 5 (the fallback answer), 10 (the
// doc-ranking fill) and 20 (the chunk path's extraction set).
func TestFallbackAnswersMatchDenseOracle(t *testing.T) {
	var files []adapter.RawFile
	var entities []string
	for _, spec := range []datasets.Spec{datasets.Movies(5), datasets.Flights(5)} {
		spec.Entities = 30
		d := datasets.MustGenerate(spec)
		files = append(files, d.Files...)
		for _, q := range d.Queries {
			entities = append(entities, q.Entity)
		}
	}
	sys := NewSystem(Config{LLM: llm.Config{Seed: 1}})
	if _, err := sys.Ingest(files); err != nil {
		t.Fatal(err)
	}
	ix := sys.Index()
	for i, e := range entities {
		q := fmt.Sprintf([]string{
			"Anything interesting regarding %s lately",
			"Tell me something about %s please",
			"Any recent news concerning %s",
		}[i%3], e)
		if !sys.Query(q).Found {
			t.Fatalf("%q: fallback found nothing in a %d-chunk index", q, ix.Len())
		}
		qv := retrieval.Embed(q, ix.Dim())
		for _, k := range []int{retrievalK, 10, 4 * retrievalK} {
			got, err := ix.SearchVectorCtx(context.Background(), qv, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := denseTopK(ix, qv, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q, k=%d: scan diverges from the dense reference:\n got  %v\n want %v", q, k, got, want)
			}
		}
	}
}

// TestQueryWithDocsRankingStable checks ranking stability on a quiescent
// system: repeated evaluations must produce the identical document order.
func TestQueryWithDocsRankingStable(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	q := "What is the status of CA981?"
	_, first := s.QueryWithDocs(q, 5)
	if len(first) == 0 {
		t.Fatal("no documents ranked")
	}
	for i := 0; i < 5; i++ {
		if _, docs := s.QueryWithDocs(q, 5); !reflect.DeepEqual(docs, first) {
			t.Fatalf("ranking unstable on quiescent system: %v vs %v", docs, first)
		}
	}
}

// TestQueryWithDocsUnderConcurrentIngest is the scan-under-ingest stress
// for the ranking path: QueryWithDocs must stay internally consistent (one
// snapshot per call: no duplicate docs, bounded length, stable answer for
// the untouched flight) while batches commit into the index.
func TestQueryWithDocsUnderConcurrentIngest(t *testing.T) {
	const rankers = 6
	const batches = 8
	s := newCaseStudySystem(t, Config{Workers: 4})

	var stop atomic.Bool
	var ranked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(rankers)
	for r := 0; r < rankers; r++ {
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				ans, docs := s.QueryWithDocs("What is the status of CA981?", 5)
				if !ans.Found {
					t.Error("answer lost during concurrent ingest")
					return
				}
				if len(docs) > 5 {
					t.Errorf("ranking overflow: %d docs for k=5", len(docs))
					return
				}
				seen := map[string]bool{}
				for _, doc := range docs {
					if seen[doc] {
						t.Errorf("duplicate doc %q in ranking %v", doc, docs)
						return
					}
					seen[doc] = true
				}
				ranked.Add(1)
			}
		}(r)
	}
	for b := 0; b < batches; b++ {
		_, err := s.Ingest([]adapter.RawFile{{
			Domain: "flights", Source: fmt.Sprintf("radar-%d", b), Name: "sweep", Format: "csv",
			Content: []byte(fmt.Sprintf("flight,status,gate\nXX%d42,On time,A%d\n", b, b)),
		}})
		if err != nil {
			t.Fatalf("ingest batch %d: %v", b, err)
		}
		floor := ranked.Load() + rankers
		for ranked.Load() < floor && !t.Failed() {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if ranked.Load() == 0 {
		t.Fatal("no rankings completed during ingestion")
	}
	// Every batch must have landed in the index and be retrievable.
	for b := 0; b < batches; b++ {
		if ans := s.Query(fmt.Sprintf("What is the status of XX%d42?", b)); !ans.Found {
			t.Fatalf("batch %d invisible after concurrent ingest", b)
		}
	}
}

// TestIndexRowsDeterministicAcrossWorkerCounts extends PR 1's determinism
// contract to the chunk index: chunks are embedded on the worker pool and
// appended by the committer, and the pool size must not change which rows the
// index holds, their order (the checkpoint's order) or their vectors.
func TestIndexRowsDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := datasets.Flights(9)
	spec.Entities = 20
	spec.Queries = 10
	d := datasets.MustGenerate(spec)
	build := func(workers int) *System {
		s := NewSystem(Config{Workers: workers, LLM: llm.Config{Seed: 1}})
		if _, err := s.Ingest(d.Files); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := build(1), build(8)
	sc, sv := embeddedRows(serial)
	pc, pv := embeddedRows(parallel)
	if len(sc) == 0 || !reflect.DeepEqual(sc, pc) || !reflect.DeepEqual(sv, pv) {
		t.Fatalf("index rows diverge across worker counts: %d vs %d rows", len(sc), len(pc))
	}
	for _, q := range d.Queries {
		sa := serial.Query(q.Text)
		pa := parallel.Query(q.Text)
		if !reflect.DeepEqual(sa.Values, pa.Values) {
			t.Fatalf("answers diverge for %q: %v vs %v", q.Text, sa.Values, pa.Values)
		}
	}
}
