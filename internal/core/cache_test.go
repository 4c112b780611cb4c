package core

import (
	"reflect"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// multiHopFiles is a two-document bridge corpus (director → birthplace).
func multiHopFiles() []adapter.RawFile {
	return []adapter.RawFile{
		{Domain: "wiki", Source: "wiki", Name: "doc1", Format: "text",
			Content: []byte("The director of The Hidden Monument is Keiko Tanaka.")},
		{Domain: "wiki", Source: "wiki", Name: "doc2", Format: "text",
			Content: []byte("The birthplace of Keiko Tanaka is Tokyo.")},
	}
}

// TestEmbedCacheRemovesRepeatEmbedCalls is the acceptance check for the
// evaluation cache: re-running a multi-hop query (which embeds one
// sub-question per hop on the chunk-retrieval path) must not call Embed
// again — every sub-question embedding comes from the cache.
func TestEmbedCacheRemovesRepeatEmbedCalls(t *testing.T) {
	s := NewSystem(Config{DisableMKA: true, LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(multiHopFiles()); err != nil {
		t.Fatal(err)
	}
	q := "What is the birthplace of the director of The Hidden Monument?"
	first := s.Query(q) // warms the embedding cache for q and both hops
	before := retrieval.EmbedCalls()
	second := s.Query(q)
	if delta := retrieval.EmbedCalls() - before; delta != 0 {
		t.Fatalf("re-running the multi-hop query made %d Embed calls, want 0 (cache miss)", delta)
	}
	if !reflect.DeepEqual(first.Values, second.Values) {
		t.Fatalf("cached embeddings changed the answer: %v vs %v", first.Values, second.Values)
	}
}

// TestEmbedCacheComparisonQuery covers the comparison intent: both legs'
// sub-questions embed once across repeated evaluations.
func TestEmbedCacheComparisonQuery(t *testing.T) {
	s := NewSystem(Config{DisableMKA: true, LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	files := []adapter.RawFile{{Domain: "wiki", Source: "wiki", Name: "d1", Format: "text",
		Content: []byte("The genre of The Crimson Harbor is noir. The genre of The Silent Garden is noir.")}}
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	q := "Do The Crimson Harbor and The Silent Garden have the same genre?"
	s.Query(q)
	before := retrieval.EmbedCalls()
	s.Query(q)
	if delta := retrieval.EmbedCalls() - before; delta != 0 {
		t.Fatalf("re-running the comparison query made %d Embed calls, want 0", delta)
	}
}
