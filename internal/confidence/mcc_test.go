package confidence

import (
	"math"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
)

// caseStudyGraph reproduces the Table V scenario: a trustworthy consistent
// subgraph (airline/airport/weather all say Delayed) plus a conflicting
// low-quality claim from a user forum.
func caseStudyGraph(t *testing.T) (*kg.Graph, *linegraph.SG) {
	t.Helper()
	g := kg.New()
	g.AddEntity("CA981", "Flight", "flights")
	add := func(pred, obj, src string, w float64) {
		t.Helper()
		if _, err := g.AddTriple(kg.Fact{
			Subject: kg.CanonicalID("CA981"), Predicate: pred, Object: obj,
			Source: src, Domain: "flights", Weight: w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("status", "Delayed", "airline-app", 0.9)
	add("status", "Delayed", "airport-api", 0.88)
	add("status", "Delayed", "weather-feed", 0.8)
	add("status", "On time", "forum-user", 0.4)
	add("delay_reason", "Typhoon", "airline-app", 0.87)
	add("delay_reason", "Typhoon", "weather-feed", 0.85)
	return g, linegraph.Build(g)
}

func newMCC(cfg Config) *MCC {
	return New(cfg, llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
}

// runApply runs MCC over the candidates and applies the history credits, as
// the engine does once a query's parallel phase has joined.
func runApply(m *MCC, sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) Result {
	res, delta := m.RunDeferred(sg, candidates, opts)
	m.History().Apply(delta)
	return res
}

func TestRunFiltersConflictingMinority(t *testing.T) {
	_, sg := caseStudyGraph(t)
	m := newMCC(DefaultConfig())
	node, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")
	res := runApply(m, sg, []*linegraph.HomologousNode{node}, Options{})
	if len(res.SVs) == 0 {
		t.Fatal("trusted set must not be empty")
	}
	for _, tn := range res.SVs {
		if tn.Triple.Object != "Delayed" {
			t.Fatalf("conflicting claim leaked into SVs: %+v", tn.Triple)
		}
	}
	found := false
	for _, r := range res.LVs {
		if r.Source == "forum-user" {
			found = true
		}
	}
	if !found {
		t.Fatal("forum claim must be rejected (Table V: filtered ForumUser)")
	}
}

func TestRunFastPathOnConsensus(t *testing.T) {
	g := kg.New()
	g.AddEntity("Heat", "Movie", "movies")
	for _, src := range []string{"a", "b", "c", "d"} {
		if _, err := g.AddTriple(kg.Fact{Subject: "heat", Predicate: "year", Object: "1995", Source: src, Weight: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	sg := linegraph.Build(g)
	m := newMCC(DefaultConfig())
	node, _ := sg.Lookup("heat", "year")
	res := runApply(m, sg, []*linegraph.HomologousNode{node}, Options{})
	if len(res.Assessments) != 1 || !res.Assessments[0].FastPath {
		t.Fatalf("consensus subgraph must take the fast path: %+v", res.Assessments)
	}
	if len(res.SVs) != 2 {
		t.Fatalf("fast path must contribute FastPathNodes=2 members, got %d", len(res.SVs))
	}
	if res.NodesScored != 0 {
		t.Fatalf("fast path must not score nodes, scored %d", res.NodesScored)
	}
}

func TestRunGraphLevelEliminatesWeakSubgraph(t *testing.T) {
	g := kg.New()
	g.AddEntity("X", "", "d")
	add := func(pred, obj, src string) {
		if _, err := g.AddTriple(kg.Fact{Subject: "x", Predicate: pred, Object: obj, Source: src, Weight: 0.8}); err != nil {
			t.Fatal(err)
		}
	}
	// Consistent candidate.
	add("status", "ok", "s1")
	add("status", "ok", "s2")
	// Fully conflicted alternative candidate.
	add("user_claim", "alpha", "u1")
	add("user_claim", "beta", "u2")
	sg := linegraph.Build(g)
	m := newMCC(DefaultConfig())
	n1, _ := sg.Lookup("x", "status")
	n2, _ := sg.Lookup("x", "user_claim")
	res := runApply(m, sg, []*linegraph.HomologousNode{n1, n2}, Options{})
	var elim *Assessment
	for i := range res.Assessments {
		if res.Assessments[i].Node == n2 {
			elim = &res.Assessments[i]
		}
	}
	if elim == nil || !elim.EliminatedByGraph {
		t.Fatalf("conflicted alternative must be eliminated at graph level: %+v", res.Assessments)
	}
}

func TestAblationMonotonicity(t *testing.T) {
	// The trusted sets must grow (get noisier) as levels are disabled:
	// full ⊆ w/o graph-level ⊆ w/o MCC in terms of conflicting content.
	_, sg := caseStudyGraph(t)
	node, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")

	count := func(opts Options) (trusted, wrong int) {
		m := newMCC(DefaultConfig())
		res := runApply(m, sg, []*linegraph.HomologousNode{node}, opts)
		for _, tn := range res.SVs {
			trusted++
			if tn.Triple.Object != "Delayed" {
				wrong++
			}
		}
		return
	}
	_, wrongFull := count(Options{})
	_, wrongNoMCC := count(Options{DisableGraphLevel: true, DisableNodeLevel: true})
	if wrongFull != 0 {
		t.Fatalf("full MCC leaked %d wrong claims", wrongFull)
	}
	if wrongNoMCC == 0 {
		t.Fatal("disabling MCC must leak the conflicting claim")
	}
}

func TestRunWithoutNodeLevelKeepsLocalConflicts(t *testing.T) {
	// A low-consensus subgraph (below the graph threshold) passes through
	// whole when node-level scoring is disabled: graph-level alone cannot
	// resolve local conflicts (§IV-C).
	g := kg.New()
	g.AddEntity("CA982", "Flight", "flights")
	add := func(obj, src string) {
		t.Helper()
		if _, err := g.AddTriple(kg.Fact{
			Subject: kg.CanonicalID("CA982"), Predicate: "status", Object: obj,
			Source: src, Weight: 0.8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("Delayed", "a")
	add("Delayed", "b")
	add("On time", "forum-user")
	add("On time", "forum-user-2")
	sg := linegraph.Build(g)
	node, _ := sg.Lookup(kg.CanonicalID("CA982"), "status")
	m := newMCC(DefaultConfig())
	res := runApply(m, sg, []*linegraph.HomologousNode{node}, Options{DisableNodeLevel: true})
	leak := false
	for _, tn := range res.SVs {
		if tn.Triple.Source == "forum-user" {
			leak = true
		}
		if tn.Verified {
			t.Fatal("pass-through nodes must be unverified")
		}
	}
	if !leak {
		t.Fatal("w/o node level the local conflict must remain")
	}
	// The same subgraph under the full framework filters the minority.
	full := runApply(newMCC(DefaultConfig()), sg, []*linegraph.HomologousNode{node}, Options{})
	for _, tn := range full.SVs {
		if tn.Triple.Source == "forum-user" && tn.Confidence >= full.SVs[0].Confidence {
			t.Fatal("full MCC must down-rank the conflicting claim")
		}
	}
}

func TestAssessIsolated(t *testing.T) {
	g := kg.New()
	g.AddEntity("Heat", "Movie", "movies")
	id, err := g.AddTriple(kg.Fact{Subject: "heat", Predicate: "runtime", Object: "170", Source: "imdb", Weight: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := g.Triple(id)
	sg := linegraph.Build(g)
	m := newMCC(DefaultConfig())
	tn := m.AssessIsolated(sg, tr, Options{})
	if tn.Confidence <= 0 || tn.Confidence > 1 {
		t.Fatalf("isolated confidence = %v", tn.Confidence)
	}
	raw := m.AssessIsolated(sg, tr, Options{DisableGraphLevel: true, DisableNodeLevel: true})
	if raw.Confidence != tr.Weight {
		t.Fatalf("w/o MCC isolated confidence must be the raw weight, got %v", raw.Confidence)
	}
}

func TestHistoryLearnsSourceQuality(t *testing.T) {
	_, sg := caseStudyGraph(t)
	node, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")
	m := newMCC(Config{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99}) // force node-level
	before := m.History().Prh("forum-user")
	for i := 0; i < 5; i++ {
		runApply(m, sg, []*linegraph.HomologousNode{node}, Options{})
	}
	after := m.History().Prh("forum-user")
	if after >= before {
		t.Fatalf("rejected source's historical credibility must fall: %v → %v", before, after)
	}
	goodBefore := 0.5
	goodAfter := m.History().Prh("airline-app")
	if goodAfter <= goodBefore {
		t.Fatalf("accepted source's credibility must rise: %v → %v", goodBefore, goodAfter)
	}
}

func TestAlphaExtremesSkipComponents(t *testing.T) {
	_, sg := caseStudyGraph(t)
	node, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")

	// α = 1: pure LLM authority, no history scans.
	m1 := New(Config{Alpha: 1, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99}, llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
	runApply(m1, sg, []*linegraph.HomologousNode{node}, Options{})
	if m1.History().Scans() != 0 {
		t.Fatalf("α=1 must not scan history, scanned %d", m1.History().Scans())
	}

	// α = 0: pure history, no LLM authority calls.
	model := llm.NewSim(llm.DefaultConfig())
	m0 := New(Config{Alpha: 0, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99}, model, NewHistoryStore())
	model.ResetUsage()
	runApply(m0, sg, []*linegraph.HomologousNode{node}, Options{})
	if model.Usage().Calls != 0 {
		t.Fatalf("α=0 must not call the LLM judge, made %d calls", model.Usage().Calls)
	}
	if m0.History().Scans() == 0 {
		t.Fatal("α=0 must scan history")
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0.5, 0); s != 0.5 {
		t.Fatalf("Sigmoid(β,0) = %v, want 0.5", s)
	}
	if !(Sigmoid(0.5, 2) > 0.5 && Sigmoid(0.5, -2) < 0.5) {
		t.Fatal("sigmoid must be monotone around 0")
	}
	if Sigmoid(2, 1) <= Sigmoid(0.5, 1) {
		t.Fatal("larger β must steepen the curve")
	}
}

func TestHistoricalFormula(t *testing.T) {
	hs := NewHistoryStore()
	// Fresh source: H = 50, Prh = 0.5. With one current answer of mass 0.9
	// and one query-related datum: (50·0.5 + 0.9) / (50 + 1).
	got := hs.Historical("src", []float64{0.9}, 1, 1)
	want := (50*0.5 + 0.9) / 51.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Auth_hist = %v, want %v (Eq. 11)", got, want)
	}
	if hs.Scans() != 50 {
		t.Fatalf("scans = %d, want 50", hs.Scans())
	}
	hs.ResetScans()
	if hs.Scans() != 0 {
		t.Fatal("ResetScans failed")
	}
}

func TestHistoryUpdate(t *testing.T) {
	hs := NewHistoryStore()
	hs.Update("good", 10, 10)
	hs.Update("bad", 10, 0)
	if !(hs.Prh("good") > 0.5 && hs.Prh("bad") < 0.5) {
		t.Fatalf("Prh good=%v bad=%v", hs.Prh("good"), hs.Prh("bad"))
	}
	hs.Update("noop", 0, 0) // must not panic or create garbage
}

func TestMajorityCluster(t *testing.T) {
	ts := []*kg.Triple{
		{Object: "Delayed"},
		{Object: "delayed"},
		{Object: "On time"},
	}
	got := majorityCluster(ts)
	if len(got) != 2 {
		t.Fatalf("majority cluster size = %d, want 2", len(got))
	}
}

// TestRunStaleNodeNoMembers pins the stale-SG edge: a candidate node whose
// member triples were all removed from the graph after the SG was built (the
// perturbation flow before RebuildSG) must score cleanly as an empty
// assessment instead of panicking, under every ablation combination.
func TestRunStaleNodeNoMembers(t *testing.T) {
	g, sg := caseStudyGraph(t)
	node, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")
	for _, tr := range sg.MemberTriples(node) {
		if !g.RemoveTriple(kg.TripleID(tr.Handle())) {
			t.Fatalf("could not remove member %s", kg.TripleID(tr.Handle()))
		}
	}
	for _, opts := range []Options{
		{},
		{DisableGraphLevel: true},
		{DisableNodeLevel: true},
		{DisableGraphLevel: true, DisableNodeLevel: true},
	} {
		m := newMCC(DefaultConfig())
		res := runApply(m, sg, []*linegraph.HomologousNode{node}, opts)
		if len(res.SVs) != 0 || len(res.LVs) != 0 {
			t.Fatalf("opts %+v: stale node produced evidence: %+v", opts, res)
		}
		if len(res.Assessments) != 1 {
			t.Fatalf("opts %+v: assessments = %d, want 1", opts, len(res.Assessments))
		}
	}
}
