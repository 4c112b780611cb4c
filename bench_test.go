package multirag_test

// This file is the benchmark harness required by DESIGN.md §4: one testing.B
// target per paper table and figure (run at a reduced scale so `go test
// -bench=.` completes in minutes — use cmd/benchtables for the full-scale
// regeneration), ablation benches for the design decisions DESIGN.md §2–§3
// call out, and micro-benchmarks for the core data structures.

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/bench"
	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/datasets"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// benchOpts is the reduced-scale configuration used by the table/figure
// benchmarks.
func benchOpts() bench.Options {
	return bench.Options{Seed: 1, Scale: 0.12, Out: io.Discard}
}

// --- One bench per table / figure ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableI(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableII(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableIII(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableIV(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableV(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Figure5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Figure6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Figure7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// benchCorpus builds a small fusion corpus once per benchmark.
func benchCorpus(b *testing.B) *datasets.Dataset {
	b.Helper()
	spec := datasets.Movies(5)
	spec.Entities = 40
	spec.Queries = 20
	return datasets.MustGenerate(spec)
}

func newBenchSystem(b *testing.B, cfg core.Config, files []adapter.RawFile) *core.System {
	b.Helper()
	if cfg.LLM == (llm.Config{}) {
		cfg.LLM = llm.DefaultConfig()
	}
	s := core.NewSystem(cfg)
	if _, err := s.Ingest(files); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationMKA contrasts line-graph lookup against the chunk-and-
// extract fallback (design decision 1: the line graph is the retrieval
// structure).
func BenchmarkAblationMKA(b *testing.B) {
	d := benchCorpus(b)
	for _, variant := range []struct {
		name string
		cfg  core.Config
	}{
		{"linegraph", core.Config{}},
		{"chunks", core.Config{DisableMKA: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			s := newBenchSystem(b, variant.cfg, d.Files)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Query(d.Queries[i%len(d.Queries)].Text)
			}
		})
	}
}

// BenchmarkAblationGraphLevel measures the cost of skipping the coarse stage
// (design decision 2: two-stage confidence).
func BenchmarkAblationGraphLevel(b *testing.B) {
	d := benchCorpus(b)
	for _, variant := range []struct {
		name string
		opts confidence.Options
	}{
		{"two-stage", confidence.Options{}},
		{"node-only", confidence.Options{DisableGraphLevel: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			s := newBenchSystem(b, core.Config{Ablation: variant.opts}, d.Files)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Query(d.Queries[i%len(d.Queries)].Text)
			}
		})
	}
}

// BenchmarkAblationNodeLevel measures the fine stage in isolation.
func BenchmarkAblationNodeLevel(b *testing.B) {
	d := benchCorpus(b)
	for _, variant := range []struct {
		name string
		opts confidence.Options
	}{
		{"full", confidence.Options{}},
		{"graph-only", confidence.Options{DisableNodeLevel: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			s := newBenchSystem(b, core.Config{Ablation: variant.opts}, d.Files)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Query(d.Queries[i%len(d.Queries)].Text)
			}
		})
	}
}

// --- Micro-benchmarks for the core data structures ---

func benchGraph(b *testing.B) *kg.Graph {
	b.Helper()
	d := benchCorpus(b)
	sys := newBenchSystem(b, core.Config{}, d.Files)
	return sys.Graph()
}

func BenchmarkMCCRun(b *testing.B) {
	g := benchGraph(b)
	sg := linegraph.Build(g)
	var nodes []*linegraph.HomologousNode
	g.ForEachKeyPosting(func(subjH, predH int32, posting []int32) {
		if len(posting) >= 2 && len(nodes) < 8 {
			n, _ := sg.Lookup(g.EntityAt(subjH).ID, g.PredicateAt(predH))
			nodes = append(nodes, n)
		}
	})
	m := confidence.New(confidence.DefaultConfig(), llm.NewSim(llm.DefaultConfig()), confidence.NewHistoryStore())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, delta := m.RunDeferred(sg, nodes, confidence.Options{})
		m.History().Apply(delta)
	}
}

func BenchmarkRetrievalSearch(b *testing.B) {
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	d := benchCorpus(b)
	fused, err := adapter.NewRegistry().Fuse(d.Files)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range fused {
		for _, c := range core.RenderChunks(n, 64) {
			ix.Add(c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(d.Queries[i%len(d.Queries)].Text, 5)
	}
}

func BenchmarkEndToEndQuery(b *testing.B) {
	d := benchCorpus(b)
	s := newBenchSystem(b, core.Config{}, d.Files)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(d.Queries[i%len(d.Queries)].Text)
	}
}

// --- Concurrent serving / incremental ingestion benchmarks ---

// BenchmarkAskParallel measures query throughput under snapshot-isolated
// concurrent serving: every goroutine reads the atomically published
// snapshot with no coordination on the hot path.
func BenchmarkAskParallel(b *testing.B) {
	d := benchCorpus(b)
	s := newBenchSystem(b, core.Config{}, d.Files)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			s.Query(d.Queries[i%len(d.Queries)].Text)
		}
	})
}

// repeatedIngestBatches pre-renders small per-batch corpora so the benchmark
// loop measures ingestion, not dataset generation.
func repeatedIngestBatches(n int) [][]adapter.RawFile {
	batches := make([][]adapter.RawFile, n)
	for i := range batches {
		batches[i] = []adapter.RawFile{{
			Domain: "fleet", Source: fmt.Sprintf("src-%03d", i), Name: "feed", Format: "csv",
			Content: []byte(fmt.Sprintf(
				"flight,status,gate\nCA%03d,Delayed,A1\nMU%03d,On time,B2\nQF%03d,Boarding,C3\n",
				i%40, i%40, i%40)),
		}}
	}
	return batches
}

// BenchmarkRepeatedIngest times the write path over many small commits, each
// of which publishes the line graph as a view over its graph in O(1). One op
// = ingesting 64 successive batches into a fresh system.
func BenchmarkRepeatedIngest(b *testing.B) {
	batches := repeatedIngestBatches(64)
	for i := 0; i < b.N; i++ {
		s := core.NewSystem(core.Config{})
		for _, batch := range batches {
			if _, err := s.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestWorkers sweeps the ingestion pool size over one multi-file
// corpus (the Figure-6-style scaling axis for the write path).
func BenchmarkIngestWorkers(b *testing.B) {
	d := benchCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewSystem(core.Config{Workers: workers})
				if _, err := s.Ingest(d.Files); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
