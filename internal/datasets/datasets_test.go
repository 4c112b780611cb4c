package datasets

import (
	"reflect"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/extract"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/textutil"
)

func smallMovies(seed uint64) Spec {
	s := Movies(seed)
	s.Entities = 30
	s.Queries = 20
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(smallMovies(7))
	b := MustGenerate(smallMovies(7))
	if len(a.Claims) != len(b.Claims) || len(a.Files) != len(b.Files) {
		t.Fatal("same seed must generate identical datasets")
	}
	for i := range a.Claims {
		if a.Claims[i] != b.Claims[i] {
			t.Fatalf("claim %d differs: %+v vs %+v", i, a.Claims[i], b.Claims[i])
		}
	}
	for i := range a.Files {
		if string(a.Files[i].Content) != string(b.Files[i].Content) {
			t.Fatalf("file %d content differs", i)
		}
	}
	c := MustGenerate(smallMovies(8))
	if len(c.Claims) == len(a.Claims) && reflect.DeepEqual(c.Claims, a.Claims) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateQueriesAnswerable(t *testing.T) {
	d := MustGenerate(smallMovies(1))
	if len(d.Queries) == 0 {
		t.Fatal("no queries generated")
	}
	for _, q := range d.Queries {
		if len(q.Gold) == 0 {
			t.Fatalf("query %s has no gold", q.ID)
		}
		found := false
		for _, c := range d.Claims {
			if c.Correct && GoldKey(c.Entity, c.Attribute) == GoldKey(q.Entity, q.Attribute) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %s has no correct claim in the corpus", q.ID)
		}
		if !strings.Contains(q.Text, "What is the") {
			t.Fatalf("query text grammar broken: %q", q.Text)
		}
	}
}

func TestGenerateCopySourcesReplicate(t *testing.T) {
	d := MustGenerate(smallMovies(3))
	spec := d.Spec
	var copySrc, parent string
	for _, s := range spec.Sources {
		if s.CopyOf != "" {
			copySrc, parent = s.Name, s.CopyOf
			break
		}
	}
	if copySrc == "" {
		t.Skip("preset has no copying source")
	}
	var a, b []Claim
	for _, c := range d.Claims {
		switch c.Source {
		case copySrc:
			a = append(a, c)
		case parent:
			b = append(b, c)
		}
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("copy source must replicate parent: %d vs %d claims", len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Entity != b[i].Entity {
			t.Fatalf("copied claim %d differs", i)
		}
	}
}

func TestFilterFormats(t *testing.T) {
	d := MustGenerate(smallMovies(1))
	jk, err := d.FilterFormats("J/K")
	if err != nil {
		t.Fatalf("FilterFormats(J/K): %v", err)
	}
	for _, f := range jk {
		if f.Format != "json" && f.Format != "kg" {
			t.Fatalf("unexpected format %s in J/K filter", f.Format)
		}
	}
	if len(jk) == 0 || len(jk) >= len(d.Files) {
		t.Fatalf("filter size = %d of %d", len(jk), len(d.Files))
	}
	// Unknown letters come from table definitions and CLI flags: they must
	// surface as errors, not panics.
	if _, err := d.FilterFormats("Z"); err == nil {
		t.Fatal("FilterFormats(Z) = nil error, want unknown-letter error")
	}
	if _, err := d.QueriesFor("Z", 5); err == nil {
		t.Fatal("QueriesFor(Z) = nil error, want unknown-letter error")
	}
	if _, err := Generate(Spec{Name: "bad", Domain: "movie", Entities: 1,
		Attributes: []AttrSpec{{Name: "director", Kind: "person"}},
		Sources:    []SourceSpec{{Name: "s1", Format: "parquet", Reliability: 1, Coverage: 1}},
	}); err == nil {
		t.Fatal("Generate with unknown source format = nil error, want error")
	}
}

func TestSourcesByFormatMatchesTableI(t *testing.T) {
	d := MustGenerate(Movies(1))
	got := d.SourcesByFormat()
	if got["json"] != 4 || got["kg"] != 5 || got["csv"] != 4 {
		t.Fatalf("Movies source split = %v, want J:4 K:5 C:4 (Table I)", got)
	}
	b := MustGenerate(Books(1))
	gb := b.SourcesByFormat()
	if gb["json"] != 3 || gb["csv"] != 3 || gb["xml"] != 4 {
		t.Fatalf("Books source split = %v, want J:3 C:3 X:4", gb)
	}
	fl := MustGenerate(Flights(1))
	gf := fl.SourcesByFormat()
	if gf["csv"] != 10 || gf["json"] != 10 {
		t.Fatalf("Flights source split = %v, want C:10 J:10", gf)
	}
}

func TestDensityContrast(t *testing.T) {
	// Movies must be denser than Books: more claims per gold fact.
	m := MustGenerate(Movies(1))
	b := MustGenerate(Books(1))
	density := func(d *Dataset) float64 {
		return float64(len(d.Claims)) / float64(len(d.Gold))
	}
	if density(m) <= density(b)*1.5 {
		t.Fatalf("Movies density %.2f must clearly exceed Books density %.2f",
			density(m), density(b))
	}
}

// buildGraph ingests a dataset end to end (adapters → extractor → KG).
func buildGraph(t *testing.T, files []adapter.RawFile) *kg.Graph {
	t.Helper()
	fused, err := adapter.NewRegistry().Fuse(files)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	g := kg.New()
	ext := extract.New(llm.NewSim(llm.Config{Seed: 1, ExtractionNoise: 0}))
	for _, f := range fused {
		if _, err := ext.BuildFile(g, f); err != nil {
			t.Fatalf("BuildFile: %v", err)
		}
	}
	return g
}

func TestEndToEndIngestion(t *testing.T) {
	d := MustGenerate(smallMovies(1))
	g := buildGraph(t, d.Files)
	if g.NumTriples() < len(d.Claims)/2 {
		t.Fatalf("graph has %d triples for %d claims; ingestion is losing data",
			g.NumTriples(), len(d.Claims))
	}
	// Every query's gold fact must be reachable through the graph (entity
	// IDs are standardised by the knowledge-construction std phase).
	missing := 0
	for _, q := range d.Queries {
		if len(g.TriplesByKey(kg.CanonicalID(textutil.StandardizeName(q.Entity)), q.Attribute)) == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d/%d queries have no triples in the graph", missing, len(d.Queries))
	}
}

func TestMaskRelationsKeepsAnswerability(t *testing.T) {
	d := MustGenerate(smallMovies(2))
	g := buildGraph(t, d.Files)
	before := g.NumTriples()
	removed := MaskRelations(g, 0.5, 11, d.Gold)
	if removed == 0 {
		t.Fatal("masking removed nothing")
	}
	if g.NumTriples() != before-removed {
		t.Fatalf("triple count inconsistent: %d vs %d-%d", g.NumTriples(), before, removed)
	}
	for _, q := range d.Queries {
		ts := g.TriplesByKey(kg.CanonicalID(textutil.StandardizeName(q.Entity)), q.Attribute)
		correct := false
		for _, tr := range ts {
			for _, gold := range q.Gold {
				if kg.CanonicalID(tr.Object) == kg.CanonicalID(gold) {
					correct = true
				}
			}
		}
		if !correct {
			t.Fatalf("query %s lost its last correct claim under masking", q.ID)
		}
	}
}

func TestMaskRelationsZeroFrac(t *testing.T) {
	d := MustGenerate(smallMovies(2))
	g := buildGraph(t, d.Files)
	if MaskRelations(g, 0, 1, d.Gold) != 0 {
		t.Fatal("frac=0 must be a no-op")
	}
}

func TestAddShuffledTriples(t *testing.T) {
	d := MustGenerate(smallMovies(2))
	g := buildGraph(t, d.Files)
	before := g.NumTriples()
	added := AddShuffledTriples(g, 0.3, 5)
	if added == 0 {
		t.Fatal("no triples added")
	}
	if g.NumTriples() != before+added {
		t.Fatalf("count mismatch: %d vs %d+%d", g.NumTriples(), before, added)
	}
	// Perturbation triples must be attributable.
	foundPerturb := false
	for _, id := range g.TripleIDs() {
		tr, _ := g.Triple(id)
		if strings.HasPrefix(tr.Source, "perturb-") {
			foundPerturb = true
			break
		}
	}
	if !foundPerturb {
		t.Fatal("perturbation source tag missing")
	}
}

func TestCorruptSources(t *testing.T) {
	d := MustGenerate(smallMovies(4))
	c, err := d.CorruptSources(0.5, 9)
	if err != nil {
		t.Fatalf("CorruptSources: %v", err)
	}
	if len(c.Claims) != len(d.Claims) {
		t.Fatalf("claim count changed: %d vs %d", len(c.Claims), len(d.Claims))
	}
	changed := 0
	for i := range c.Claims {
		if c.Claims[i].Value != d.Claims[i].Value {
			changed++
		}
	}
	frac := float64(changed) / float64(len(d.Claims))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("corruption fraction = %.2f, want ≈0.5", frac)
	}
	if same, err := d.CorruptSources(0, 1); err != nil || same != d {
		t.Fatal("frac=0 must return the dataset unchanged")
	}
	// Files must reflect corrupted claims.
	if reflect.DeepEqual(c.Files, d.Files) {
		t.Fatal("files not regenerated after corruption")
	}
}

func TestGenerateQABridge(t *testing.T) {
	spec := Hotpot(3)
	spec.Questions = 20
	d := GenerateQA(spec)
	if len(d.Questions) != 20 {
		t.Fatalf("questions = %d", len(d.Questions))
	}
	docs := map[string]bool{}
	for _, doc := range d.Docs {
		docs[doc.ID] = true
	}
	for _, q := range d.Questions {
		if q.Type != "bridge" {
			t.Fatalf("hotpot preset must be all bridge questions, got %s", q.Type)
		}
		if len(q.Support) != 2 {
			t.Fatalf("bridge question must have 2 supporting docs: %v", q.Support)
		}
		for _, id := range q.Support {
			if !docs[id] {
				t.Fatalf("supporting doc %s missing from corpus", id)
			}
		}
		if len(q.Answer) != 1 || q.Answer[0] == "" {
			t.Fatalf("bad answer: %v", q.Answer)
		}
	}
}

func TestGenerateQAComparisonMix(t *testing.T) {
	spec := TwoWiki(3)
	spec.Questions = 60
	d := GenerateQA(spec)
	comp := 0
	for _, q := range d.Questions {
		if q.Type == "comparison" {
			comp++
			if q.Answer[0] != "yes" && q.Answer[0] != "no" {
				t.Fatalf("comparison answer = %v", q.Answer)
			}
		}
	}
	if comp == 0 || comp == len(d.Questions) {
		t.Fatalf("comparison mix = %d/%d, want a blend", comp, len(d.Questions))
	}
}

func TestGenerateQADeterministic(t *testing.T) {
	s := Hotpot(5)
	s.Questions = 10
	a := GenerateQA(s)
	b := GenerateQA(s)
	if !reflect.DeepEqual(a.Questions, b.Questions) {
		t.Fatal("QA generation must be deterministic")
	}
}

func TestGoldKeyCaseInsensitive(t *testing.T) {
	if GoldKey("The Matrix", "director") != GoldKey("the  matrix", "director") {
		t.Fatal("gold keys must normalise entity case/space")
	}
}
