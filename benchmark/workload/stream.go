package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"multirag"
	"multirag/internal/datasets"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	QueryGraph    = "query-graph"
	QueryFallback = "query-fallback"
	IngestStream  = "ingest-stream"
	MixedRW       = "mixed-rw"
)

// Names lists every workload.
func Names() []string { return []string{QueryGraph, QueryFallback, IngestStream, MixedRW} }

const (
	// zipfDraws is how many fallback draws are precomputed; the stream wraps
	// after that (a 60 s run at 400 req/s uses 24k).
	zipfDraws = 1 << 16
	// BatchSize is the queries per /v1/query/batch request on mixed-rw:
	// three graph queries and one fallback.
	BatchSize = 4
	// Delta shards regenerate the six datasets at this size.
	deltaEntities  = 10
	deltaQuestions = 2
	deltaSeedBase  = 1000
)

// Stream indexes the deterministic request sequences of one corpus. Position
// i of a sequence is the same for a given (seed, scale) however many clients
// pull from it, so a shared atomic counter is all the load generator needs.
type Stream struct {
	c    *Corpus
	zipf []int32

	mu     sync.Mutex
	deltas [][]multirag.File
	shards int
}

// NewStream prepares the sequences over c.
func NewStream(c *Corpus) *Stream {
	s := &Stream{c: c, zipf: make([]int32, zipfDraws)}
	rng := rand.New(rand.NewSource(int64(c.Seed) ^ 0x21bf))
	// Rank r of the Zipf maps to pool position r: the pool is template-major,
	// so the head is spread over distinct entities of one template.
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(c.Fallback)-1))
	for i := range s.zipf {
		s.zipf[i] = int32(z.Uint64())
	}
	return s
}

// Graph is request i of the query-graph sequence: the four kinds in
// rotation, each cycling through its own shuffled pool.
func (s *Stream) Graph(i int) GoldQuery {
	kinds := GraphKinds()
	pool := s.c.Graph[kinds[i%len(kinds)]]
	return pool[(i/len(kinds))%len(pool)]
}

// GraphDistinct is how many requests the query-graph sequence runs before
// every pool entry has been sent at least once.
func (s *Stream) GraphDistinct() int {
	longest := 0
	for _, k := range GraphKinds() {
		if n := len(s.c.Graph[k]); n > longest {
			longest = n
		}
	}
	return longest * len(GraphKinds())
}

// Fallback is request i of the query-fallback sequence.
func (s *Stream) Fallback(i int) string {
	return s.c.Fallback[s.zipf[i%len(s.zipf)]]
}

// Batch is request i of the mixed-rw reader: three graph queries and one
// fallback (which carries no gold).
func (s *Stream) Batch(i int) []GoldQuery {
	out := make([]GoldQuery, 0, BatchSize)
	for j := 0; j < BatchSize-1; j++ {
		out = append(out, s.Graph(i*(BatchSize-1)+j))
	}
	return append(out, GoldQuery{Kind: KindFallback, Text: s.Fallback(i)})
}

// Delta is request i of the ingest sequence: one small source file, or one
// QA question's documents. Shards are generated on demand so the stream
// never runs out however fast the server ingests.
func (s *Stream) Delta(i int) []multirag.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.deltas) {
		s.deltas = append(s.deltas, deltaShard(s.c.Seed, s.shards)...)
		s.shards++
	}
	return s.deltas[i]
}

// deltaShard regenerates the six datasets small, under a shard-specific
// seed. Entity names come from the same pools as the base corpus, so many
// collide with it on purpose: an update to a known entity grows an existing
// homologous group instead of starting a new one. File names are made
// unique so a shard never overwrites a base document.
func deltaShard(seed uint64, j int) [][]multirag.File {
	shardSeed := seed + deltaSeedBase + uint64(j)
	var out [][]multirag.File
	for _, spec := range datasets.AllPresets(shardSeed) {
		spec.Entities = deltaEntities
		spec.Queries = 1
		// Code-defined presets cannot fail to generate.
		d := datasets.MustGenerate(spec)
		for _, f := range d.Files {
			out = append(out, []multirag.File{{Domain: f.Domain, Source: f.Source,
				Name: fmt.Sprintf("%s-delta-%d", f.Name, j), Format: f.Format, Meta: f.Meta, Content: f.Content}})
		}
	}
	for _, spec := range []datasets.QASpec{datasets.Hotpot(shardSeed), datasets.TwoWiki(shardSeed)} {
		spec.Questions = deltaQuestions
		qa := datasets.GenerateQA(spec)
		// Documents are appended question by question; a question's run
		// starts at its first supporting document.
		starts := make([]int, 0, len(qa.Questions)+1)
		for _, q := range qa.Questions {
			for k, doc := range qa.Docs {
				if doc.ID == q.Support[0] {
					starts = append(starts, k)
					break
				}
			}
		}
		starts = append(starts, len(qa.Docs))
		for k := 0; k+1 < len(starts); k++ {
			var req []multirag.File
			for _, doc := range qa.Docs[starts[k]:starts[k+1]] {
				f := docFile(doc)
				f.Name = fmt.Sprintf("%s-delta-%d", doc.ID, j)
				req = append(req, f)
			}
			out = append(out, req)
		}
	}
	return out
}

// Hash fingerprints the first n requests of a workload's sequence, so a test
// can assert that one seed always yields one request stream.
func (s *Stream) Hash(name string, n int) uint64 {
	h := fnv.New64a()
	put := func(parts ...string) {
		for _, p := range parts {
			var l [4]byte
			binary.LittleEndian.PutUint32(l[:], uint32(len(p)))
			h.Write(l[:])
			h.Write([]byte(p))
		}
	}
	putFiles := func(files []multirag.File) {
		for _, f := range files {
			put(f.Domain, f.Source, f.Name, f.Format, string(f.Content))
		}
	}
	for i := 0; i < n; i++ {
		switch name {
		case QueryGraph:
			put(s.Graph(i).Text)
		case QueryFallback:
			put(s.Fallback(i))
		case IngestStream:
			putFiles(s.Delta(i))
		case MixedRW:
			for _, q := range s.Batch(i) {
				put(q.Text)
			}
			putFiles(s.Delta(i))
		}
	}
	return h.Sum64()
}
