package baselines

import (
	"math"
	"slices"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/eval"
	"multirag/internal/extract"
	"multirag/internal/jsonld"
	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// newEnv builds a shared environment from a small generated dataset.
func newEnv(t *testing.T, d *datasets.Dataset) *Env {
	t.Helper()
	fused, err := adapter.NewRegistry().Fuse(d.Files)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	model := llm.NewSim(llm.Config{Seed: 1, ExtractionNoise: 0.03,
		BaseHallucination: 0.03, ConflictSensitivity: 0.55})
	g := buildGraph(t, model, fused)
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	for _, n := range fused {
		for _, doc := range n.JSC {
			text := chunkTextOf(doc)
			if text != "" {
				for _, c := range chunkText(doc.ID, n.Source, text) {
					ix.Add(c)
				}
			}
		}
	}
	return &Env{Graph: g, Index: ix, Model: model}
}

// chunkTextOf verbalises a record like core.renderChunks does (duplicated
// minimally here to avoid an internal-package test dependency cycle).
func chunkTextOf(doc *jsonld.Document) string {
	if v, ok := doc.Get("text"); ok {
		return v.Str
	}
	subject := ""
	for _, k := range []string{"@key", "name", "subject"} {
		if v, ok := doc.Get(k); ok && v.Str != "" {
			subject = v.Str
			break
		}
	}
	if subject == "" {
		return ""
	}
	if p, ok := doc.Get("predicate"); ok {
		if o, oko := doc.Get("object"); oko {
			return "The " + p.Str + " of " + subject + " is " + o.Str + "."
		}
	}
	out := ""
	for _, p := range doc.Props {
		if p.Key == "@key" || p.Key == "name" {
			continue
		}
		for _, val := range p.Strings() {
			out += "The " + p.Key + " of " + subject + " is " + val + ". "
		}
	}
	return out
}

func smallDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	spec := datasets.Movies(21)
	spec.Entities = 30
	spec.Queries = 25
	return datasets.MustGenerate(spec)
}

// allFusion returns one instance of every FusionMethod baseline, in Table
// II's column order.
func allFusion() []FusionMethod {
	return []FusionMethod{
		NewTruthFinder(),
		NewLTM(),
		NewIRCoT(),
		NewMDQA(),
		NewChatKBQA(),
		NewFusionQuery(),
	}
}

// allQA returns one instance of every QAMethod baseline, in Table IV's row
// order.
func allQA() []QAMethod {
	return []QAMethod{
		NewStandardRAG(),
		NewCoT(),
		NewIRCoT(),
		NewChatKBQA(),
		NewMDQA(),
		NewRQRAG(),
		NewMetaRAG(),
	}
}

// byName returns the method of ms with the given name, matched
// case-insensitively.
func byName[M interface{ Name() string }](ms []M, name string) (M, bool) {
	for _, m := range ms {
		if strings.EqualFold(m.Name(), name) {
			return m, true
		}
	}
	var none M
	return none, false
}

// buildGraph extracts fused into a new graph file by file, as a baseline
// environment is built.
func buildGraph(t *testing.T, model *llm.Sim, fused []*jsonld.Normalized) *kg.Graph {
	t.Helper()
	g := kg.New()
	ext := extract.NewRaw(model)
	for _, f := range fused {
		if _, err := ext.BuildFile(g, f); err != nil {
			t.Fatalf("BuildFile %s: %v", f.ID, err)
		}
	}
	return g
}

func TestAllMethodsAnswerFusionQueries(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	for _, m := range allFusion() {
		m.Setup(env)
		answered := 0
		var f1 eval.Mean
		for _, q := range d.Queries {
			got := m.AnswerFusion(q.Text, q.Entity, q.Attribute)
			if len(got) > 0 {
				answered++
			}
			_, _, f := eval.PRF1(got, q.Gold)
			f1.Add(f)
		}
		if answered == 0 {
			t.Errorf("%s answered no fusion queries", m.Name())
		}
		if f1.Value() <= 0.05 {
			t.Errorf("%s fusion F1 = %.3f — implausibly broken", m.Name(), f1.Value())
		}
		t.Logf("%-18s answered %d/%d F1=%.3f", m.Name(), answered, len(d.Queries), f1.Value())
	}
}

func TestTruthFinderBeatsNothingButRuns(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	tf := NewTruthFinder()
	tf.Setup(env)
	q := d.Queries[0]
	got := tf.AnswerFusion(q.Text, q.Entity, q.Attribute)
	if len(got) == 0 {
		t.Fatal("TF returned nothing for an answerable query")
	}
}

func TestLTMSupportsMultiTruth(t *testing.T) {
	// Construct a corpus where one fact genuinely has two values, each
	// asserted by several reliable sources.
	g := kg.New()
	g.AddEntity("The Matrix", "Movie", "movies")
	for i, src := range []string{"a", "b", "c", "d"} {
		obj := "Lana Wachowski"
		if i%2 == 1 {
			obj = "Lilly Wachowski"
		}
		if _, err := g.AddTriple(kg.Fact{Subject: "the matrix", Predicate: "director", Object: obj, Source: src, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		// Each source also asserts both values via a second claim set.
		other := "Lilly Wachowski"
		if i%2 == 1 {
			other = "Lana Wachowski"
		}
		if _, err := g.AddTriple(kg.Fact{Subject: "the matrix", Predicate: "director", Object: other, Source: src, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	env := &Env{Graph: g, Index: retrieval.NewIndex(0), Model: llm.NewSim(llm.DefaultConfig())}
	ltm := NewLTM()
	ltm.Setup(env)
	got := ltm.AnswerFusion("q", "The Matrix", "director")
	if len(got) != 2 {
		t.Fatalf("LTM must recover both true values, got %v", got)
	}
}

func TestFusionQueryLearnsTrust(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	fq := NewFusionQuery()
	fq.Setup(env)
	for _, q := range d.Queries {
		fq.AnswerFusion(q.Text, q.Entity, q.Attribute)
	}
	// After the workload, trust values must have moved off the prior.
	moved := 0
	for _, tr := range fq.trust {
		if tr != 0.6 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("FusionQuery trust never updated")
	}
}

// TestTruthFinderChargesWholeCorpusPerQuery pins the on-demand protocol on
// the priced side: TF's Setup fetches nothing, each question fetches every
// claim of the corpus, and FusionQuery's candidate sets fetch far fewer.
func TestTruthFinderChargesWholeCorpusPerQuery(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	tf := NewTruthFinder()
	tf.Setup(env)
	fq := NewFusionQuery()
	fq.Setup(env)
	if env.Fetches != 0 {
		t.Fatalf("Setup charged %d fetches, want 0", env.Fetches)
	}
	corpus := len(env.Graph.TripleIDs())
	for _, q := range d.Queries[:3] {
		tf.AnswerFusion(q.Text, q.Entity, q.Attribute)
	}
	if env.Fetches != 3*corpus {
		t.Fatalf("TF fetched %d records over 3 questions, want 3 x %d", env.Fetches, corpus)
	}
	tfFetches := env.Fetches
	for _, q := range d.Queries[:3] {
		fq.AnswerFusion(q.Text, q.Entity, q.Attribute)
	}
	if fqFetches := env.Fetches - tfFetches; fqFetches == 0 || 10*fqFetches > tfFetches {
		t.Fatalf("FusionQuery fetched %d records, want some but under a tenth of TF's %d", fqFetches, tfFetches)
	}
}

// TestTruthFinderSetupFixpointMatchesPerQueryRun is the oracle for running
// the fixpoint once per Setup: on every query, the answer equals the one a
// fresh full-corpus run would give.
func TestTruthFinderSetupFixpointMatchesPerQueryRun(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	tf := NewTruthFinder()
	tf.Setup(env)
	for _, q := range d.Queries {
		got := tf.AnswerFusion(q.Text, q.Entity, q.Attribute)
		want := tf.answer(tf.run(claimsOf(env.Graph)), q.Entity, q.Attribute)
		if !slices.Equal(got, want) {
			t.Fatalf("%q: Setup's fixpoint answers %v, a fresh run %v", q.Text, got, want)
		}
	}
}

// TestTruthFinderFixpointIsDeterministic runs the fixpoint repeatedly on a
// key whose values are mutually similar, so each value's adjusted score sums
// several implication terms: the confidences must agree bit for bit, whatever
// order the maps iterate in.
func TestTruthFinderFixpointIsDeterministic(t *testing.T) {
	g := kg.New()
	g.AddEntity("Metropolis", "City", "cities")
	for i, obj := range []string{"new york city", "new york", "york city", "new city", "new york city",
		"old york city", "new york", "new york city state", "york", "new"} {
		src := string(rune('a' + i))
		if _, err := g.AddTriple(kg.Fact{Subject: "metropolis", Predicate: "name", Object: obj, Source: src, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		// A second key per source spreads the sources' trust apart.
		other := "yes"
		if i%3 == 0 {
			other = "no"
		}
		if _, err := g.AddTriple(kg.Fact{Subject: "metropolis", Predicate: "capital", Object: other, Source: src, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	tf := NewTruthFinder()
	claims := claimsOf(g)
	want := tf.run(claims)
	for i := 0; i < 200; i++ {
		got := tf.run(claims)
		for key, values := range want {
			for v, c := range values {
				if math.Float64bits(got[key][v]) != math.Float64bits(c) {
					t.Fatalf("run %d: conf[%q][%q] = %v, want %v", i, key, v, got[key][v], c)
				}
			}
		}
	}
}

func TestChatKBQAUsesGraphNotChunks(t *testing.T) {
	d := smallDataset(t)
	env := newEnv(t, d)
	c := NewChatKBQA()
	c.Setup(env)
	q := d.Queries[0]
	model := env.Model
	model.ResetUsage()
	got := c.AnswerFusion(q.Text, q.Entity, q.Attribute)
	if len(got) == 0 {
		t.Fatal("ChatKBQA returned nothing")
	}
	// Graph lookup + one generation: no extraction calls.
	if calls := model.Usage().Calls; calls > 2 {
		t.Fatalf("ChatKBQA made %d LLM calls; it must not extract from chunks", calls)
	}
}

func TestQAContractOnMultiHop(t *testing.T) {
	spec := datasets.Hotpot(9)
	spec.Questions = 12
	qa := datasets.GenerateQA(spec)
	var files []adapter.RawFile
	for _, doc := range qa.Docs {
		files = append(files, adapter.RawFile{
			Domain: "wiki", Source: doc.Source, Name: doc.ID, Format: "text",
			Content: []byte(doc.Text),
		})
	}
	fused, err := adapter.NewRegistry().Fuse(files)
	if err != nil {
		t.Fatal(err)
	}
	model := llm.NewSim(llm.Config{Seed: 2, ExtractionNoise: 0.02})
	g := buildGraph(t, model, fused)
	ix := retrieval.NewIndex(retrieval.DefaultDim)
	for _, n := range fused {
		for _, doc := range n.JSC {
			if v, ok := doc.Get("text"); ok {
				for _, c := range chunkText(doc.ID, n.Source, v.Str) {
					ix.Add(c)
				}
			}
		}
	}
	env := &Env{Graph: g, Index: ix, Model: model}
	docIDFor := map[string]string{}
	for _, doc := range qa.Docs {
		docIDFor[jsonld.NormalizedID("wiki", doc.Source, doc.ID)] = doc.ID
	}
	for _, m := range allQA() {
		m.Setup(env)
		answeredAny := false
		recall := eval.Mean{}
		for _, q := range qa.Questions {
			ans, docs := m.AnswerQA(q.Text, 5)
			if len(ans) > 0 {
				answeredAny = true
			}
			var mapped []string
			for _, dd := range docs {
				if name, ok := docIDFor[dd]; ok {
					mapped = append(mapped, name)
				}
			}
			recall.Add(eval.RecallAtK(mapped, q.Support, 5))
		}
		if !answeredAny {
			t.Errorf("%s answered no QA questions", m.Name())
		}
		if recall.Value() <= 0.1 {
			t.Errorf("%s recall@5 = %.3f — retrieval path broken", m.Name(), recall.Value())
		}
		t.Logf("%-18s R@5=%.3f", m.Name(), recall.Value())
	}
}

func TestByName(t *testing.T) {
	if m, ok := byName(allFusion(), "fusionquery"); !ok || m.Name() != "FusionQuery" {
		t.Fatalf("byName fusionquery = %v %v", m, ok)
	}
	if m, ok := byName(allQA(), "metarag"); !ok || m.Name() != "MetaRAG" {
		t.Fatalf("byName metarag = %v %v", m, ok)
	}
	if _, ok := byName(allQA(), "fusionquery"); ok {
		t.Fatal("a fusion-only method must not resolve among the QA methods")
	}
	if _, ok := byName(allFusion(), "nonexistent"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

// chunkText splits text into chunks of at most 64 tokens, as stage 1 renders
// a text record.
func chunkText(docID, source, text string) []retrieval.Chunk {
	var a retrieval.ChunkArena
	a.AppendText(docID, a.AppendString(source), text, 64)
	return a.Chunks(nil)
}
