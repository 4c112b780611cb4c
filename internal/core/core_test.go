package core

import (
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/confidence"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

// caseStudyFiles builds the Table V multi-format corpus: structured flight
// rows, semi-structured airline JSON, unstructured weather text, and a
// conflicting forum claim.
func caseStudyFiles() []adapter.RawFile {
	return []adapter.RawFile{
		{Domain: "flights", Source: "airport-api", Name: "schedule", Format: "csv",
			Content: []byte("flight,origin,destination,status\nCA981,PEK,JFK,Delayed\n")},
		{Domain: "flights", Source: "airline-app", Name: "live", Format: "json",
			Content: []byte(`[{"flight":"CA981","status":"Delayed","delay_reason":"Typhoon"}]`)},
		{Domain: "flights", Source: "weather-feed", Name: "alerts", Format: "text",
			Content: []byte("The status of CA981 is Delayed. The delay reason of CA981 is Typhoon.")},
		{Domain: "flights", Source: "forum-user", Name: "posts", Format: "text",
			Content: []byte("The status of CA981 is On time.")},
	}
}

func newCaseStudySystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.LLM == (llm.Config{}) {
		cfg.LLM = llm.Config{Seed: 1, ExtractionNoise: 0, BaseHallucination: 0.02, ConflictSensitivity: 0.6}
	}
	s := NewSystem(cfg)
	if _, err := s.Ingest(caseStudyFiles()); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return s
}

func TestIngestBuildsEverything(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	rep, err := s.Ingest(nil)
	if err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	_ = rep
	if s.Graph().NumTriples() == 0 {
		t.Fatal("graph empty after ingest")
	}
	if s.SG() == nil {
		t.Fatal("line graph not built")
	}
	if s.Index().Len() == 0 {
		t.Fatal("chunk index empty")
	}
	if pt := s.BuildCost(); pt <= 0 || pt != s.ingestModel.VirtualLatency() {
		t.Fatalf("build cost = %v, want the ingest model's priced extraction latency %v", pt, s.ingestModel.VirtualLatency())
	}
}

func TestCaseStudyQuery(t *testing.T) {
	// Table V: the conflicting forum claim must be suppressed and the
	// trusted answer must be "Delayed".
	s := newCaseStudySystem(t, Config{})
	ans := s.Query("What is the status of CA981?")
	if !ans.Found {
		t.Fatal("answer not found")
	}
	if len(ans.Values) != 1 || kg.CanonicalID(ans.Values[0]) != "delayed" {
		t.Fatalf("values = %v, want [Delayed]", ans.Values)
	}
	if ans.RejectedCount == 0 {
		t.Fatal("the forum claim should have been rejected")
	}
	for _, tn := range ans.Trusted {
		if tn.Triple.Source == "forum-user" {
			t.Fatal("forum claim leaked into trusted set")
		}
	}
}

func TestQueryDelayReason(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	ans := s.Query("What is the delay reason of CA981?")
	if !ans.Found || len(ans.Values) == 0 {
		t.Fatalf("delay reason not answered: %+v", ans)
	}
	if kg.CanonicalID(ans.Values[0]) != "typhoon" {
		t.Fatalf("values = %v, want Typhoon", ans.Values)
	}
}

func TestQueryUnknownEntity(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	ans := s.Query("What is the status of ZZ999?")
	if ans.Found && len(ans.Values) > 0 {
		// The fallback may legitimately find nothing; it must not fabricate
		// the known flight's status for an unknown flight.
		for _, v := range ans.Values {
			if kg.CanonicalID(v) == "delayed" {
				t.Fatalf("fabricated answer for unknown entity: %v", ans.Values)
			}
		}
	}
}

func TestQueryWithoutMKAUsesChunks(t *testing.T) {
	s := newCaseStudySystem(t, Config{DisableMKA: true,
		LLM: llm.Config{Seed: 1, ExtractionNoise: 0, BaseHallucination: 0.02, ConflictSensitivity: 0.6}})
	before := s.Model().Usage().Calls
	ans := s.Query("What is the status of CA981?")
	after := s.Model().Usage().Calls
	if !ans.Found {
		t.Fatalf("chunk fallback failed: %+v", ans)
	}
	// The chunk path must pay per-query extraction calls.
	if after-before < 5 {
		t.Fatalf("w/o MKA should make many LLM calls per query, made %d", after-before)
	}
}

func TestAblationWithoutMCCLeaksConflict(t *testing.T) {
	// Across many paraphrased queries, w/o MCC must hallucinate more often
	// than the full system.
	full := newCaseStudySystem(t, Config{})
	bare := newCaseStudySystem(t, Config{
		Ablation: confidence.Options{DisableGraphLevel: true, DisableNodeLevel: true},
	})
	wrongFull, wrongBare := 0, 0
	queries := []string{
		"What is the status of CA981?",
		"What is the real-time status of CA981?",
	}
	for i := 0; i < 30; i++ {
		q := queries[i%2] + strings.Repeat(" ", i/2) // vary the hallucination coin
		if a := full.Query(q); len(a.Values) == 0 || kg.CanonicalID(a.Values[0]) != "delayed" {
			wrongFull++
		}
		if a := bare.Query(q); len(a.Values) == 0 || kg.CanonicalID(a.Values[0]) != "delayed" {
			wrongBare++
		}
	}
	if wrongFull >= wrongBare {
		t.Fatalf("full MCC (%d wrong) must beat w/o MCC (%d wrong)", wrongFull, wrongBare)
	}
}

func TestMultiHopQuery(t *testing.T) {
	files := []adapter.RawFile{
		{Domain: "wiki", Source: "wiki", Name: "doc1", Format: "text",
			Content: []byte("The director of The Hidden Monument is Keiko Tanaka.")},
		{Domain: "wiki", Source: "wiki", Name: "doc2", Format: "text",
			Content: []byte("The birthplace of Keiko Tanaka is Tokyo.")},
	}
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	ans := s.Query("What is the birthplace of the director of The Hidden Monument?")
	if !ans.Found {
		t.Fatalf("multi-hop failed: %+v", ans)
	}
	if len(ans.Values) == 0 || kg.CanonicalID(ans.Values[0]) != "tokyo" {
		t.Fatalf("values = %v, want Tokyo", ans.Values)
	}
}

func TestComparisonQuery(t *testing.T) {
	files := []adapter.RawFile{
		{Domain: "wiki", Source: "wiki", Name: "d1", Format: "text",
			Content: []byte("The genre of The Crimson Harbor is noir. The genre of The Silent Garden is noir. The genre of The Golden Voyage is comedy.")},
	}
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	same := s.Query("Do The Crimson Harbor and The Silent Garden have the same genre?")
	if !same.Found || len(same.Values) != 1 || same.Values[0] != "yes" {
		t.Fatalf("same-genre comparison = %+v", same.Values)
	}
	diff := s.Query("Do The Crimson Harbor and The Golden Voyage have the same genre?")
	if !diff.Found || diff.Values[0] != "no" {
		t.Fatalf("diff-genre comparison = %+v", diff.Values)
	}
}

// TestComparisonVerdictVariantSpellings: the verdict compares the arms' values
// up to normalisation, so two spellings of one value are the same value and
// a value that merely shares a token is not.
func TestComparisonVerdictVariantSpellings(t *testing.T) {
	files := []adapter.RawFile{
		{Domain: "flights", Source: "feed", Name: "d1", Format: "text",
			Content: []byte("The status of Flight AB100 is On Time. The status of Flight CD200 is on-time. The status of Flight EF300 is on hold.")},
	}
	s := NewSystem(Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(files); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, want string }{
		{"Do Flight AB100 and Flight CD200 have the same status?", "yes"},
		{"Do Flight AB100 and Flight EF300 have the same status?", "no"},
	} {
		ans := s.Query(c.q)
		if !ans.Found || len(ans.Values) != 1 || ans.Values[0] != c.want {
			t.Fatalf("%s = %+v, want [%s]", c.q, ans.Values, c.want)
		}
	}
	if !shareValue([]string{"Delayed", "On Time"}, []string{"on-time"}) || shareValue([]string{"On Time"}, []string{"OnTime", "on hold"}) {
		t.Fatal("shareValue must match spellings of one value and nothing else")
	}
}

func TestEndToEndFusionF1(t *testing.T) {
	// The full pipeline over a small generated dataset must answer most
	// queries correctly — the substance behind Table II's MCC column.
	spec := datasets.Movies(11)
	spec.Entities = 40
	spec.Queries = 30
	d := datasets.MustGenerate(spec)
	s := NewSystem(Config{})
	if _, err := s.Ingest(d.Files); err != nil {
		t.Fatal(err)
	}
	var f1 eval.Mean
	for _, q := range d.Queries {
		ans := s.Query(q.Text)
		_, _, f := eval.PRF1(ans.Values, q.Gold)
		f1.Add(f)
	}
	if f1.Value() < 0.45 {
		t.Fatalf("end-to-end F1 = %.3f; pipeline is not recovering the truth", f1.Value())
	}
}

func TestRetrieveDocs(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	docs := s.RetrieveDocs("What is the status of CA981?", 5)
	if len(docs) == 0 {
		t.Fatal("no docs retrieved")
	}
	seen := map[string]bool{}
	for _, d := range docs {
		if seen[d] {
			t.Fatalf("duplicate doc %s", d)
		}
		seen[d] = true
	}
}

func TestRebuildSGAfterMutation(t *testing.T) {
	s := newCaseStudySystem(t, Config{})
	before := s.SG().ComputeStats()
	// Remove one triple and rebuild.
	ids := s.Graph().TripleIDs()
	s.Graph().RemoveTriple(ids[0])
	s.RebuildSG()
	after := s.SG().ComputeStats()
	if before == after {
		t.Fatal("RebuildSG must reflect graph mutation")
	}
}
