package core

import (
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/confidence"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

// ablationAll is the w/o-MCC configuration used by the precision-gap test.
func ablationAll() confidence.Options {
	return confidence.Options{DisableGraphLevel: true, DisableNodeLevel: true}
}

// TestPoisonedBridgeFiltered checks the Table IV mechanism end to end: a
// forum document claims a decoy bridge with its own biography; the full
// framework must stay on the trustworthy branch.
func TestPoisonedBridgeFiltered(t *testing.T) {
	files := []adapter.RawFile{
		{Domain: "wiki", Source: "wiki", Name: "work", Format: "text",
			Content: []byte("The author of The Gentle Archive is Nadia Fontaine.")},
		{Domain: "wiki", Source: "wiki", Name: "bio", Format: "text",
			Content: []byte("The birthplace of Nadia Fontaine is Paris.")},
		{Domain: "wiki", Source: "forum-rumor", Name: "rumor", Format: "text",
			Content: []byte("According to rumor mills, the author of The Gentle Archive is Blake Ivanov.")},
		{Domain: "wiki", Source: "forum-rumor", Name: "decoy", Format: "text",
			Content: []byte("The birthplace of Blake Ivanov is Oslo.")},
	}
	s := NewSystem(Config{LLM: llm.Config{Seed: 5, ExtractionNoise: 0}})
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	ans := s.Query("What is the birthplace of the author of The Gentle Archive?")
	if !ans.Found {
		t.Fatal("bridge question unanswered")
	}
	if len(ans.Values) != 1 || kg.CanonicalID(ans.Values[0]) != "paris" {
		t.Fatalf("poisoned branch leaked: %v", ans.Values)
	}
}

// TestQAEndToEndPrecisionGap verifies the Table IV headline on a small
// generated corpus: the full framework must beat its own w/o-MCC ablation on
// answer precision.
func TestQAEndToEndPrecisionGap(t *testing.T) {
	spec := datasets.Hotpot(13)
	spec.Questions = 40
	qa := datasets.GenerateQA(spec)
	var files []adapter.RawFile
	for _, doc := range qa.Docs {
		files = append(files, adapter.RawFile{
			Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text",
			Content: []byte(doc.Text),
		})
	}
	run := func(cfg Config) float64 {
		s := NewSystem(cfg)
		if _, err := s.Ingest(files); err != nil {
			t.Fatal(err)
		}
		var p eval.Mean
		for _, q := range qa.Questions {
			ans := s.Query(q.Text)
			prec, _, _ := eval.PRF1(ans.Values, q.Answer)
			p.Add(prec)
		}
		return p.Value()
	}
	full := run(Config{LLM: llm.Config{Seed: 5}})
	bare := run(Config{LLM: llm.Config{Seed: 5},
		Ablation: ablationAll()})
	if full <= bare {
		t.Fatalf("full precision %.3f must exceed w/o MCC %.3f", full, bare)
	}
	if full < 0.6 {
		t.Fatalf("full precision %.3f implausibly low", full)
	}
}

// TestRetrieveDocsRanksTrustedProvenanceFirst verifies the Recall@5 pathway
// puts confidence-backed documents ahead of dense filler.
func TestRetrieveDocsRanksTrustedProvenanceFirst(t *testing.T) {
	files := []adapter.RawFile{
		{Domain: "wiki", Source: "wiki", Name: "good", Format: "text",
			Content: []byte("The genre of The Savage Cipher is noir.")},
		{Domain: "wiki", Source: "wiki", Name: "noise1", Format: "text",
			Content: []byte("The genre of The Hollow Frontier is comedy.")},
		{Domain: "wiki", Source: "wiki", Name: "noise2", Format: "text",
			Content: []byte("The genre of The Endless Orchard is drama.")},
	}
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	docs := s.RetrieveDocs("What is the genre of The Savage Cipher?", 3)
	if len(docs) == 0 {
		t.Fatal("no docs")
	}
	if want := "wiki/wiki/good"; docs[0][:len(want)] != want {
		t.Fatalf("trusted provenance must rank first, got %v", docs)
	}
}
