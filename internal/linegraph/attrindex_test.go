package linegraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"multirag/internal/adapter"
	"multirag/internal/datasets"
	"multirag/internal/extract"
	"multirag/internal/kg"
	"multirag/internal/llm"
)

// scanNested is the reference nested-candidate lookup: the full node scan the
// subject-posting lookup replaces. It mirrors the pre-index query-path condition
// exactly (same subject, strictly-nested name).
func scanNested(sg *SG, subjectID, relation string) []*HomologousNode {
	var out []*HomologousNode
	sg.ForEachNode(func(_ string, n *HomologousNode) {
		if n.SubjectID == subjectID && n.Name != relation && strings.HasPrefix(n.Name, relation+"_") {
			out = append(out, n)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func TestNestedCandidatesMatchScan(t *testing.T) {
	g := kg.New()
	add := func(subj, pred, obj, src string) {
		t.Helper()
		g.AddEntity(subj, "Entity", "t")
		if _, err := g.AddTriple(kg.Fact{
			Subject: kg.CanonicalID(subj), Predicate: pred, Object: obj, Source: src, Weight: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// status has two nested attributes plus a decoy sharing the prefix text
	// without the separator (statuses must NOT match status).
	for _, src := range []string{"a", "b"} {
		add("CA981", "status", "Delayed", src)
		add("CA981", "status_state", "Boarding gate closed", src)
		add("CA981", "status_reason", "Typhoon", src)
		add("CA981", "statuses", "many", src)
		add("MU588", "status_state", "On time", src)
	}
	sg := Build(g)
	for _, c := range []struct{ subj, rel string }{
		{"ca981", "status"}, {"mu588", "status"}, {"ca981", "statuses"},
		{"ca981", "gate"}, {"zz999", "status"},
	} {
		got := sg.NestedCandidates(c.subj, c.rel)
		want := scanNested(sg, c.subj, c.rel)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NestedCandidates(%q,%q) = %v, scan = %v", c.subj, c.rel, keysOf(got), keysOf(want))
		}
	}
	if got := sg.NestedCandidates("ca981", "status"); len(got) != 2 {
		t.Fatalf("expected the two nested status attributes, got %v", keysOf(got))
	}
}

func keysOf(ns []*HomologousNode) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Key
	}
	return out
}

// TestNestedCandidatesAcrossDeltaGenerations is the COW-friendliness check:
// lookups must track the delta (new nested attributes appear, none leak
// backwards into the previous generation's answers). Each generation grows a
// clone of the previous one's graph, as the serving engine does.
func TestNestedCandidatesAcrossDeltaGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := kg.New()
	subjects := []string{"e0", "e1", "e2", "e3"}
	rels := []string{"status", "status_state", "status_reason", "price", "price_open"}
	addBatch := func(n int) {
		for i := 0; i < n; i++ {
			subj := subjects[rng.Intn(len(subjects))]
			g.AddEntity(subj, "Entity", "t")
			_, err := g.AddTriple(kg.Fact{
				Subject: kg.CanonicalID(subj), Predicate: rels[rng.Intn(len(rels))],
				Object: fmt.Sprintf("v%d", rng.Intn(3)), Source: fmt.Sprintf("s%d", rng.Intn(4)), Weight: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	addBatch(20)
	sg := Build(g)
	for batch := 0; batch < 6; batch++ {
		prev := sg
		prevStatus := map[string][]string{}
		for _, s := range subjects {
			prevStatus[s] = keysOf(prev.NestedCandidates(kg.CanonicalID(s), "status"))
		}
		g = g.Clone()
		addBatch(10)
		sg = Build(g)
		for _, s := range subjects {
			subj := kg.CanonicalID(s)
			for _, rel := range []string{"status", "price"} {
				got := sg.NestedCandidates(subj, rel)
				want := scanNested(sg, subj, rel)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: NestedCandidates(%q,%q) = %v, scan = %v",
						batch, subj, rel, keysOf(got), keysOf(want))
				}
			}
			// The previous generation must not see the new batch.
			if got := keysOf(prev.NestedCandidates(subj, "status")); !reflect.DeepEqual(got, prevStatus[s]) {
				t.Fatalf("batch %d: previous generation's answer changed: %v vs %v", batch, got, prevStatus[s])
			}
		}
	}
}

// indexNested is the lookup NestedCandidates replaced, kept as an oracle: a
// whole-corpus subject → sorted attribute names index (which every generation
// rebuilt on its first nested lookup), binary-searched for the prefix.
func indexNested(sg *SG) func(subjectID, relation string) []*HomologousNode {
	idx := make(map[string][]string)
	sg.ForEachNode(func(_ string, n *HomologousNode) {
		idx[n.SubjectID] = append(idx[n.SubjectID], n.Name)
	})
	for _, names := range idx {
		sort.Strings(names)
	}
	return func(subjectID, relation string) []*HomologousNode {
		names, prefix := idx[subjectID], relation+"_"
		var out []*HomologousNode
		for i := sort.SearchStrings(names, prefix); i < len(names) && strings.HasPrefix(names[i], prefix); i++ {
			if n, ok := sg.Lookup(subjectID, names[i]); ok {
				out = append(out, n)
			}
		}
		return out
	}
}

// TestNestedCandidatesMatchIndexOracle pins the subject-posting lookup
// against the index it replaced over generated corpora: for every entity and
// every relation a nested name could hang under (each "_"-delimited proper
// prefix of each predicate, and each predicate itself), the same nodes in the
// same name order. That no lookup scans nodes is structural: ForEachNode
// exists only in this package's tests, and the graph walk under it,
// kg.Graph.ForEachKeyPosting, is on the root package's exportAllowlist as a
// function no product code calls, so a product caller fails
// TestProductExportsHaveCallers.
func TestNestedCandidatesMatchIndexOracle(t *testing.T) {
	nested := 0
	for _, spec := range datasets.AllPresets(3) {
		spec.Entities = 40
		fused, err := adapter.NewRegistry().Fuse(datasets.MustGenerate(spec).Files)
		if err != nil {
			t.Fatal(err)
		}
		g := kg.New()
		ext := extract.New(llm.NewSim(llm.Config{Seed: 1}))
		for _, f := range fused {
			if _, err := ext.BuildFile(g, f); err != nil {
				t.Fatal(err)
			}
		}
		sg := Build(g)
		oracle := indexNested(sg)
		relations := map[string]bool{}
		g.ForEachTriple(func(_ int32, tr *kg.Triple) {
			pred := g.Predicate(tr)
			relations[pred] = true
			for i, c := range pred {
				if c == '_' {
					relations[pred[:i]] = true
				}
			}
		})
		for h := range int32(g.NumEntities()) {
			subj := g.EntityAt(h).ID
			for rel := range relations {
				got, want := sg.NestedCandidates(subj, rel), oracle(subj, rel)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: NestedCandidates(%q,%q) = %v, index oracle = %v", spec.Name, subj, rel, keysOf(got), keysOf(want))
				}
				nested += len(got)
			}
		}
	}
	if nested == 0 {
		t.Fatal("no corpus has a nested attribute (flights has departure_time), the comparison was vacuous")
	}
}
