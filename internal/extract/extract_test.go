package extract

import (
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/jsonld"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

func fuseAndBuild(t *testing.T, files []adapter.RawFile) (*kg.Graph, Report) {
	t.Helper()
	reg := adapter.NewRegistry()
	fused, err := reg.Fuse(files)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	g := kg.New()
	model := llm.NewSim(llm.Config{Seed: 1, ExtractionNoise: 0})
	return g, buildFiles(t, New(model), g, fused)
}

// buildFiles extracts files into g one by one and returns their merged
// report.
func buildFiles(t *testing.T, e *Extractor, g Sink, files []*jsonld.Normalized) Report {
	t.Helper()
	rep := Report{ByFormat: map[string]int{}}
	for _, f := range files {
		fileRep, err := e.BuildFile(g, f)
		if err != nil {
			t.Fatalf("BuildFile: %v", err)
		}
		rep.Merge(fileRep)
	}
	return rep
}

func TestBuildFromCSV(t *testing.T) {
	g, _ := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "movies", Source: "imdb", Name: "top", Format: "csv",
		Content: []byte("title,director,year\nHeat,Michael Mann,1995\n"),
	}})
	if g.NumTriples() != 2 {
		t.Fatalf("triples = %d, want 2", g.NumTriples())
	}
	ts := g.TriplesByKey(kg.CanonicalID("Heat"), "director")
	if len(ts) != 1 || ts[0].Object != "Michael Mann" {
		t.Fatalf("director triples = %v", ts)
	}
	if ts[0].Source != "imdb" || g.Format(ts[0]) != "csv" {
		t.Fatalf("provenance lost: %+v", ts[0])
	}
}

func TestBuildFromNestedJSON(t *testing.T) {
	g, _ := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "flights", Source: "app", Name: "live", Format: "json",
		Content: []byte(`[{"name":"CA981","status":{"state":"Delayed","reason":"Weather"}}]`),
	}})
	ts := g.TriplesByKey(kg.CanonicalID("CA981"), "status_state")
	if len(ts) != 1 || ts[0].Object != "Delayed" {
		t.Fatalf("nested attribute flattening failed: %v", ts)
	}
}

func TestBuildFromXMLRepeatedElements(t *testing.T) {
	g, _ := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "books", Source: "lib", Name: "cat", Format: "xml",
		Content: []byte(`<books><book><title>Hyperion</title><author>Dan Simmons</author><author>Other Person</author></book></books>`),
	}})
	ts := g.TriplesByKey(kg.CanonicalID("Hyperion"), "author")
	if len(ts) != 2 {
		t.Fatalf("author triples = %d, want 2 (multi-valued)", len(ts))
	}
}

func TestBuildFromKGFormat(t *testing.T) {
	g, _ := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "movies", Source: "kgsrc", Name: "facts", Format: "kg",
		Content: []byte("Heat|year|1995\nHeat|director|Michael Mann"),
	}})
	if g.NumTriples() != 2 {
		t.Fatalf("triples = %d", g.NumTriples())
	}
	if len(g.TriplesByKey(kg.CanonicalID("Heat"), "year")) != 1 {
		t.Fatal("kg triple missing")
	}
}

func TestBuildFromTextUsesLLM(t *testing.T) {
	g, rep := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "movies", Source: "reviews", Name: "blurb", Format: "text",
		Content: []byte("The director of Heat is Michael Mann. The year of Heat is 1995."),
	}})
	if rep.ByFormat["text"] != 2 {
		t.Fatalf("text triples = %d, want 2", rep.ByFormat["text"])
	}
	ts := g.TriplesByKey(kg.CanonicalID("Heat"), "director")
	if len(ts) != 1 || ts[0].Object != "Michael Mann" {
		t.Fatalf("LLM-extracted triple wrong: %v", ts)
	}
	if ts[0].Weight <= 0 || ts[0].Weight > 1 {
		t.Fatalf("weight must carry extraction confidence, got %v", ts[0].Weight)
	}
}

func TestHomologousKeysAcrossFormats(t *testing.T) {
	// The same fact from three formats must land under one homologous key —
	// this is the property the whole line-graph construction relies on.
	g, _ := fuseAndBuild(t, []adapter.RawFile{
		{Domain: "movies", Source: "s1", Name: "a", Format: "csv",
			Content: []byte("title,director\nHeat,Michael Mann\n")},
		{Domain: "movies", Source: "s2", Name: "b", Format: "json",
			Content: []byte(`[{"title":"heat","director":"Mike Mann"}]`)},
		{Domain: "movies", Source: "s3", Name: "c", Format: "kg",
			Content: []byte("HEAT|director|M. Mann")},
	})
	ts := g.TriplesByKey(kg.CanonicalID("Heat"), "director")
	if len(ts) != 3 {
		t.Fatalf("homologous group size = %d, want 3 (one per source)", len(ts))
	}
	sources := map[string]bool{}
	for _, tr := range ts {
		sources[tr.Source] = true
	}
	if len(sources) != 3 {
		t.Fatalf("sources = %v", sources)
	}
}

func TestSkippedRecordsCounted(t *testing.T) {
	_, rep := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "misc", Source: "s", Name: "n", Format: "json",
		Content: []byte(`[{"unkeyed":"value"}]`),
	}})
	if rep.SkippedNo != 1 {
		t.Fatalf("skipped = %d, want 1", rep.SkippedNo)
	}
}

func TestDesignatedKeyProperty(t *testing.T) {
	g, _ := fuseAndBuild(t, []adapter.RawFile{{
		Domain: "stocks", Source: "feed", Name: "px", Format: "json",
		Meta:    map[string]string{"key": "ticker"},
		Content: []byte(`[{"ticker":"ACME","price":"41.5"}]`),
	}})
	if len(g.TriplesByKey(kg.CanonicalID("ACME"), "price")) != 1 {
		t.Fatal("designated key property ignored")
	}
}
