package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/confidence"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
)

// kgFile renders native-KG triples ("subj|pred|obj" lines) for one source.
func kgFile(source string, lines ...string) adapter.RawFile {
	return adapter.RawFile{
		Domain: "exec", Source: source, Name: "facts", Format: "kg",
		Content: []byte(strings.Join(lines, "\n") + "\n"),
	}
}

// executorFiles is a corpus exercising every executor path: consistent
// homologous groups (fast path, memoable), conflicting groups (node-level
// scoring, history-sensitive), nested attributes, multi-truth bridges for
// hop-2 fan-out, and an isolated claim.
func executorFiles() []adapter.RawFile {
	return []adapter.RawFile{
		kgFile("registry",
			"Team Alpha|manager|Dana Fox",
			"Team Alpha|manager|Eli Ray",
			"Team Alpha|status|Active",
			"Team Alpha|status_state|Scaling",
			"Dana Fox|city|Oslo",
			"Eli Ray|city|Lima",
			"Team Beta|manager|Dana Fox",
			"Team Beta|status|Active",
		),
		kgFile("ledger",
			"Team Alpha|manager|Dana Fox",
			"Team Alpha|manager|Eli Ray",
			"Team Alpha|status|Active",
			"Team Alpha|status_state|Scaling",
			"Dana Fox|city|Oslo",
			"Eli Ray|city|Lima",
			"Team Beta|manager|Dana Fox",
			"Team Beta|status|Dormant",
		),
		kgFile("forum-posts",
			// Conflicting claims force the node-level (history-reading) stage.
			"Dana Fox|city|Paris",
			"Eli Ray|city|Cairo",
			"Team Alpha|status|Dormant",
			// Isolated claim: single member for (team beta, founded).
			"Team Beta|founded|2019",
		),
	}
}

// executorQueries mixes every intent, including repeats that hit the
// evidence memo and a comparison whose first arm cannot resolve.
func executorQueries() []string {
	return []string{
		"What is the status of Team Alpha?",
		"What is the city of the manager of Team Alpha?",
		"What is the city of the manager of Team Beta?",
		"Do Team Alpha and Team Beta have the same status?",
		"What is the founded of Team Beta?",
		"What is the city of the manager of Team Alpha?",
		"Do Team Gamma and Team Alpha have the same status?",
		"Something about Team Alpha entirely unparsable",
		"What is the status of Team Beta?",
	}
}

func newExecutorSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.LLM == (llm.Config{}) {
		cfg.LLM = llm.Config{Seed: 1, ExtractionNoise: 0}
	}
	s := NewSystem(cfg)
	if _, err := s.Ingest(executorFiles()); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	return s
}

// TestQueryDeterministicAcrossWorkerCounts is the parallel-executor
// correctness contract: the full Answer — Values, Trusted order,
// GraphConfidences, Stages, diagnostics — must be bit-identical whether
// sub-questions run on one worker or eight, across a query sequence whose
// later answers depend on the history the earlier ones evolved.
func TestQueryDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := newExecutorSystem(t, Config{Workers: 1})
	parallel := newExecutorSystem(t, Config{Workers: 8})
	for round := 0; round < 3; round++ {
		for _, q := range executorQueries() {
			sa := serial.Query(q)
			pa := parallel.Query(q)
			if !reflect.DeepEqual(sa, pa) {
				t.Fatalf("round %d: answers diverge for %q:\n workers=1 %+v\n workers=8 %+v", round, q, sa, pa)
			}
		}
	}
}

// size reports the memo's current entry count.
func (c *evidenceMemo) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// prh reads a source's historical credibility Prh(D) as Auth_hist with no
// current answers and no validation effort, which charges no scan: equal
// histories read equal.
func prh(hs *confidence.HistoryStore, source string) float64 {
	return hs.Historical(source, nil, 0, 0)
}

// scanNestedCandidates is the nested-attribute candidate search as a walk
// over every homologous node — the oracle for SG.NestedCandidates, which
// reads the subject's own triples instead.
func scanNestedCandidates(sg *linegraph.SG, subj, relation string) []*linegraph.HomologousNode {
	var out []*linegraph.HomologousNode
	forEachNode(sg, func(n *linegraph.HomologousNode) {
		if n.SubjectID == subj && n.Name != relation && strings.HasPrefix(n.Name, relation+"_") {
			out = append(out, n)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestQueryPathAvoidsNodeScans is the acceptance check for the per-snapshot
// evidence index: it must find exactly the candidates a full node scan finds
// — for every (subject, relation) the queries ask and every underscore
// prefix of a stored attribute name. Team Alpha's status carries two nested
// attributes. That no query scans nodes is structural: the only whole-graph
// key walk, kg.Graph.ForEachKeyPosting, is on the root package's
// exportAllowlist as a function no product code calls, so a product caller
// fails TestProductExportsHaveCallers.
func TestQueryPathAvoidsNodeScans(t *testing.T) {
	s := newExecutorSystem(t, Config{})
	if _, err := s.Ingest([]adapter.RawFile{
		kgFile("registry-nested", "Team Alpha|status_since|2019"),
		kgFile("ledger-nested", "Team Alpha|status_since|2019"),
	}); err != nil {
		t.Fatal(err)
	}
	sg := s.SG()
	type key struct{ subj, rel string }
	keys := map[key]bool{}
	forEachNode(sg, func(n *linegraph.HomologousNode) {
		for i := range n.Name {
			if n.Name[i] == '_' {
				keys[key{n.SubjectID, n.Name[:i]}] = true
			}
		}
		keys[key{n.SubjectID, n.Name}] = true
	})
	for _, q := range executorQueries() {
		lf := s.model.ParseQuery(q)
		for _, e := range lf.Entities {
			for _, r := range lf.Relations {
				keys[key{kg.CanonicalID(s.model.Standardize(e)), r}] = true
			}
		}
	}
	widest := 0
	for k := range keys {
		want := scanNestedCandidates(sg, k.subj, k.rel)
		if got := sg.NestedCandidates(k.subj, k.rel); !reflect.DeepEqual(got, want) {
			t.Fatalf("NestedCandidates(%q, %q) = %d nodes, full scan finds %d", k.subj, k.rel, len(got), len(want))
		}
		widest = max(widest, len(want))
	}
	if widest < 2 {
		t.Fatalf("at most %d nested candidate per key; the oracle comparison is too weak", widest)
	}
}

// memoKinds counts the evidence memo's entries by kind: complete outcomes,
// partial homologous groups and partial isolated points.
func memoKinds(s *System) (complete, groups, points int) {
	s.evidence.mu.Lock()
	defer s.evidence.mu.Unlock()
	for _, ent := range s.evidence.m {
		switch {
		case ent.group != nil:
			groups++
		case ent.point != nil:
			points++
		default:
			complete++
		}
	}
	return complete, groups, points
}

// countJudgements points s's MCC at a fork of its model, keeping its
// configuration and source history. MCC calls its model only to judge
// authority, so the fork's call count is the expert's judgements.
func countJudgements(s *System) *llm.Sim {
	judge := s.model.Fork()
	s.mcc = confidence.New(s.mcc.Config(), judge, s.mcc.History())
	return judge
}

// executorSources are the sources executorFiles ingests.
var executorSources = []string{"registry", "ledger", "forum-posts"}

// TestEvidenceMemoTransparent pins the memo's exactness contract: complete
// entries replay their history credits on every hit, and partial entries
// (node-scored groups, isolated points) recompute the history-dependent half
// against the history as it stands, so the complete answer sequence — and
// the source history it leaves behind, the validation scans and the expert's
// authority judgements per query — is bit-identical with the memo on and
// off. The memo is turned off by moving its generation past every snapshot's,
// which makes get and put treat every query as stale.
func TestEvidenceMemoTransparent(t *testing.T) {
	memo := newExecutorSystem(t, Config{})
	plain := newExecutorSystem(t, Config{})
	plain.evidence.gen = math.MaxUint64
	memoJudge, plainJudge := countJudgements(memo), countJudgements(plain)
	for round := 0; round < 3; round++ {
		for _, q := range executorQueries() {
			ma := memo.Query(q)
			pa := plain.Query(q)
			if !reflect.DeepEqual(ma, pa) {
				t.Fatalf("round %d: memo changed the answer for %q:\n with    %+v\n without %+v", round, q, ma, pa)
			}
			for _, src := range executorSources {
				if a, b := prh(memo.mcc.History(), src), prh(plain.mcc.History(), src); a != b {
					t.Fatalf("round %d, %q: history of %s diverges: %v with the memo, %v without", round, q, src, a, b)
				}
			}
			if a, b := memo.mcc.History().Scans(), plain.mcc.History().Scans(); a != b {
				t.Fatalf("round %d, %q: %d history scans with the memo, %d without", round, q, a, b)
			}
			if a, b := memoJudge.Usage().Calls, plainJudge.Usage().Calls; a != b {
				t.Fatalf("round %d, %q: %d authority judgements with the memo, %d without", round, q, a, b)
			}
		}
	}
	complete, groups, points := memoKinds(memo)
	if complete == 0 || groups == 0 || points == 0 {
		t.Fatalf("memo holds %d complete, %d node-scored and %d isolated-point entries; the transparency check ran vacuously for a kind", complete, groups, points)
	}
	if memoJudge.Usage().Calls == 0 {
		t.Fatal("no authority judgement was made; the node-level stage never ran")
	}
	if n := plain.evidence.size(); n != 0 {
		t.Fatalf("the memo that was turned off stored %d entries", n)
	}
}

// TestEvidenceMemoIsolatedFromCallerMutation pins the memo's shared,
// read-only evidence contract: Query hands answers to arbitrary user code, and
// a lookup's memo hit shares the memoised slices without a copy, so every
// Answer slice must be the caller's own and overwriting it must not reach the
// entry served to later callers. (Team Beta, manager) is a consistent
// fast-path key, so the second query is a memo hit.
func TestEvidenceMemoIsolatedFromCallerMutation(t *testing.T) {
	const q = "What is the manager of Team Beta?"
	want := newExecutorSystem(t, Config{}).Query(q) // an unmutated first answer
	s := newExecutorSystem(t, Config{})
	first := s.Query(q)
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("first answers diverge on identical systems:\n got  %+v\n want %+v", first, want)
	}
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); !ok {
		t.Fatal("expected a memo entry; the isolation check would run vacuously")
	}
	if len(first.Values) == 0 || len(first.Trusted) == 0 || len(first.GraphConfidences) == 0 {
		t.Fatalf("unexpected baseline answer: %+v", first)
	}
	first.Values[0] = "MUTATED"
	first.Trusted[0].Confidence = -1
	first.GraphConfidences[0] = -1
	if got := s.Query(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("caller mutation leaked into the evidence memo:\n got  %+v\n want %+v", got, want)
	}
}

// TestEvidenceMemoPartialIsolatedFromCallerMutation is the same contract for
// partial entries: a node-scored group and an isolated point. The second
// query is a partial hit; its answer depends on the history the first one
// evolved, so the reference is the second answer of an unmutated system.
func TestEvidenceMemoPartialIsolatedFromCallerMutation(t *testing.T) {
	for _, c := range []struct {
		q, entity, relation string
		point               bool
	}{
		{"What is the city of Dana Fox?", "Dana Fox", "city", false},
		{"What is the founded of Team Beta?", "Team Beta", "founded", true},
	} {
		ref := newExecutorSystem(t, Config{})
		ref.Query(c.q)
		want := ref.Query(c.q)
		s := newExecutorSystem(t, Config{})
		first := s.Query(c.q)
		ent, ok := s.evidence.get(s.snap.Load().gen, c.entity, c.relation)
		if !ok || (ent.point != nil) != c.point || (ent.group != nil) == c.point {
			t.Fatalf("%q: want a partial %s entry, got ok=%v %+v", c.q, map[bool]string{false: "group", true: "point"}[c.point], ok, ent)
		}
		if len(first.Values) == 0 || len(first.Trusted) == 0 {
			t.Fatalf("%q: unexpected baseline answer: %+v", c.q, first)
		}
		first.Values[0] = "MUTATED"
		for i := range first.Trusted {
			first.Trusted[i].Confidence = -1
		}
		for i := range first.GraphConfidences {
			first.GraphConfidences[i] = -1
		}
		if got := s.Query(c.q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: caller mutation leaked into a partial memo entry:\n got  %+v\n want %+v", c.q, got, want)
		}
	}
}

// TestEvidenceMemoInvalidatedOnIngest: an ingest between queries publishes a
// new generation, which must flush the memo so the next query sees the new
// corpus. (Team Beta, manager) is a consistent fast-path key, so it is
// memoable.
func TestEvidenceMemoInvalidatedOnIngest(t *testing.T) {
	s := newExecutorSystem(t, Config{})
	s.Query("What is the manager of Team Beta?")
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); !ok {
		t.Fatal("expected a memo entry before ingest")
	}
	if _, err := s.Ingest([]adapter.RawFile{
		kgFile("registry-update", "Team Epsilon|manager|Riley Kim"),
		kgFile("ledger-update", "Team Epsilon|manager|Riley Kim"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); ok {
		t.Fatal("memo served an entry from the previous snapshot generation")
	}
	ans := s.Query("What is the manager of Team Epsilon?")
	if !ans.Found || len(ans.Values) == 0 || ans.Values[0] != "Riley Kim" {
		t.Fatalf("post-ingest query never saw the new claims: %+v", ans.Values)
	}
}

// TestEvidenceMemoInvalidatedOnRebuildSG covers the other publication path.
func TestEvidenceMemoInvalidatedOnRebuildSG(t *testing.T) {
	s := newExecutorSystem(t, Config{})
	s.Query("What is the manager of Team Beta?")
	gen := s.snap.Load().gen
	if _, ok := s.evidence.get(gen, "Team Beta", "manager"); !ok {
		t.Fatal("expected a memo entry before RebuildSG")
	}
	s.RebuildSG()
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); ok {
		t.Fatal("RebuildSG did not invalidate the evidence memo")
	}
}

// TestEvidenceMemoNodeScoredInvalidated: a partial entry is as
// generation-bound as a complete one. After an ingest that adds a claim to
// the node-scored group, and after RebuildSG, the memo must not serve the old
// prepared half, and the next answer must match a system with the memo off.
func TestEvidenceMemoNodeScoredInvalidated(t *testing.T) {
	const q = "What is the city of Dana Fox?"
	for _, c := range []struct {
		name    string
		publish func(*System) error
	}{
		{"ingest", func(s *System) error {
			_, err := s.Ingest([]adapter.RawFile{kgFile("atlas", "Dana Fox|city|Bergen")})
			return err
		}},
		{"RebuildSG", func(s *System) error { s.RebuildSG(); return nil }},
	} {
		s := newExecutorSystem(t, Config{})
		plain := newExecutorSystem(t, Config{})
		plain.evidence.gen = math.MaxUint64
		s.Query(q)
		plain.Query(q)
		if ent, ok := s.evidence.get(s.snap.Load().gen, "Dana Fox", "city"); !ok || ent.group == nil {
			t.Fatalf("%s: expected a partial group entry before the publish, got ok=%v %+v", c.name, ok, ent)
		}
		if err := c.publish(s); err != nil {
			t.Fatal(err)
		}
		if err := c.publish(plain); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.evidence.get(s.snap.Load().gen, "Dana Fox", "city"); ok {
			t.Fatalf("%s: memo served a partial entry from the previous snapshot generation", c.name)
		}
		got, want := s.Query(q), plain.Query(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: post-publish answer diverges from the memo-off system:\n got  %+v\n want %+v", c.name, got, want)
		}
		if c.name == "ingest" {
			sg := s.SG()
			n, ok := sg.Lookup(kg.CanonicalID(s.model.Standardize("Dana Fox")), "city")
			if !ok {
				t.Fatal("post-ingest line graph has no (Dana Fox, city) group")
			}
			var objects []string
			for _, m := range sg.MemberTriples(n) {
				objects = append(objects, m.Object)
			}
			if !slices.Contains(objects, "Bergen") {
				t.Fatalf("post-ingest line graph never saw the new claim: %v", objects)
			}
		}
	}
}

// TestEvidenceMemoPartialEntriesConcurrent shares partial entries between
// concurrent evaluations (run with -race). Queries at Workers 1 and 8 from
// several goroutines must match a sequential run bit for bit; α = 1 keeps
// source history out of every confidence, so interleaving cannot change
// them. At the default α, concurrent sub-questions finished from the same
// partial entries against one frozen history must each return the evidence
// and history delta of a sequential evaluation.
func TestEvidenceMemoPartialEntriesConcurrent(t *testing.T) {
	llmOnly := confidence.Config{Alpha: 1, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.5, FastPathNodes: 2}
	queries := executorQueries()
	ref := newExecutorSystem(t, Config{Workers: 1, MCC: llmOnly})
	want := make(map[string]Answer, len(queries))
	for _, q := range queries {
		want[q] = ref.Query(q)
	}
	for _, workers := range []int{1, 8} {
		s := newExecutorSystem(t, Config{Workers: workers, MCC: llmOnly})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					for i := range queries {
						q := queries[(i+g)%len(queries)]
						if got := s.Query(q); !reflect.DeepEqual(got, want[q]) {
							t.Errorf("workers=%d: concurrent answer to %q diverges:\n got  %+v\n want %+v", workers, q, got, want[q])
							return
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, got := range s.QueryEach(nil, queries) {
				if !reflect.DeepEqual(got, want[queries[i]]) {
					t.Errorf("workers=%d: batch answer to %q diverges", workers, queries[i])
				}
			}
		}()
		wg.Wait()
		if _, groups, points := memoKinds(s); groups == 0 || points == 0 {
			t.Fatalf("workers=%d: %d partial groups and %d partial points; nothing was shared", workers, groups, points)
		}
	}

	s := newExecutorSystem(t, Config{})
	sn := s.snap.Load()
	keys := [][2]string{{"Dana Fox", "city"}, {"Eli Ray", "city"}, {"Team Beta", "founded"}, {"Team Alpha", "status"}}
	type outcome struct {
		e evidence
		d *confidence.HistoryDelta
	}
	seq := make([]outcome, len(keys))
	for i, k := range keys {
		e, d := s.gatherEvidence(context.Background(), sn, "", k[0], k[1])
		seq[i] = outcome{e, d}
		if e, d := s.gatherEvidence(context.Background(), sn, "", k[0], k[1]); !reflect.DeepEqual(outcome{e, d}, seq[i]) {
			t.Fatalf("%v: a memo hit diverges from the miss that filled it", k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % len(keys)
				e, d := s.gatherEvidence(context.Background(), sn, "", keys[i][0], keys[i][1])
				if !reflect.DeepEqual(outcome{e, d}, seq[i]) {
					t.Errorf("%v: a concurrent evaluation diverges from the sequential one", keys[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestComparisonShortCircuitSkipsSecondArm: with a single worker, an
// unresolvable first entity must skip the second arm's evidence gathering
// entirely — observable because the skipped arm would have filled the
// evidence memo.
func TestComparisonShortCircuitSkipsSecondArm(t *testing.T) {
	s := newExecutorSystem(t, Config{Workers: 1})
	ans := s.Query("Do Team Gamma and Team Beta have the same manager?")
	if ans.Found {
		t.Fatalf("comparison with an unknown entity must not resolve: %+v", ans.Values)
	}
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); ok {
		t.Fatal("second comparison arm was evaluated despite the first resolving to nil")
	}
	// Sanity: the arm ordering matters — a resolvable first entity evaluates
	// the second arm as usual.
	s.Query("Do Team Beta and Team Gamma have the same manager?")
	if _, ok := s.evidence.get(s.snap.Load().gen, "Team Beta", "manager"); !ok {
		t.Fatal("first comparison arm should have filled the memo")
	}
}

// TestAskDuringQueryBatch is the batch-serving race stress: QueryEach
// batches, single Query calls and ingest commits all proceed concurrently.
// Run with -race; correctness here is "no race, no panic, every batch answer
// in input order".
func TestAskDuringQueryBatch(t *testing.T) {
	s := newExecutorSystem(t, Config{Workers: 4})
	queries := executorQueries()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			out := s.QueryEach(nil, queries)
			if len(out) != len(queries) {
				t.Errorf("batch returned %d answers for %d queries", len(out), len(queries))
				return
			}
			for j := range out {
				if out[j].Query != queries[j] {
					t.Errorf("batch answer %d is for %q, want %q", j, out[j].Query, queries[j])
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.Query(queries[i%len(queries)])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := s.Ingest([]adapter.RawFile{
				kgFile(fmt.Sprintf("stream-%d", i),
					fmt.Sprintf("Team Alpha|status|Active"),
					fmt.Sprintf("Team Delta %d|status|New", i)),
			}); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
}
