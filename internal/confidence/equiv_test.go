package confidence

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
)

// TestMCCEquivalentAcrossGraphRepresentations is the top-of-stack
// observation-equivalence property for the interned graph core: the same
// corpus reaches MCC through three different representations — the original
// graph with its SG, the SG of the last of a chain of copy-on-write clones,
// and the final clone itself — and Algorithm 1 must produce bit-identical
// Results (assessments, SVs, LVs, node scores) on all of them. MCC consumes every hot observable the core rewired (member
// resolution by handle, key postings, degrees, MaxDegree, two-hop path
// support), so equality here pins the whole consistency-check pipeline.
func TestMCCEquivalentAcrossGraphRepresentations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// Ingest the same batches into: flat (one graph) and chain (clone
			// per batch, each published as its own view), the serving
			// engine's commit pattern.
			flat := kg.New()
			chain := kg.New()
			var chainSG *linegraph.SG
			for batch := 0; batch < 5; batch++ {
				next := chain.Clone()
				for i := 0; i < 3+rng.Intn(10); i++ {
					subj := fmt.Sprintf("e%d", rng.Intn(6))
					pred := fmt.Sprintf("p%d", rng.Intn(3))
					obj := fmt.Sprintf("v%d", rng.Intn(3))
					if rng.Intn(4) == 0 {
						obj = fmt.Sprintf("e%d", rng.Intn(6))
					}
					src := fmt.Sprintf("s%d", rng.Intn(3))
					w := 0.25 * float64(1+rng.Intn(4))
					flat.AddEntity(subj, "T", "d")
					next.AddEntity(subj, "T", "d")
					if _, err := flat.AddTriple(kg.Fact{
						Subject: subj, Predicate: pred, Object: obj, Source: src, Weight: w,
					}); err != nil {
						t.Fatal(err)
					}
					if _, err := next.AddTriple(kg.Fact{
						Subject: subj, Predicate: pred, Object: obj, Source: src, Weight: w,
					}); err != nil {
						t.Fatal(err)
					}
				}
				chainSG = linegraph.Build(next)
				chain = next
			}
			scratchSG := linegraph.Build(flat)

			run := func(sg *linegraph.SG) Result {
				// Fresh deterministic model + history per run: runApply
				// mutates source history, so shared state would leak
				// across runs.
				m := New(DefaultConfig(), llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
				cands, isolated := walkLineGraph(sg)
				sort.Slice(cands, func(i, j int) bool { return cands[i].Key < cands[j].Key })
				res := runApply(m, sg, cands, Options{})
				// Isolated points go through the authority-only path.
				for _, tr := range isolated {
					res.SVs = append(res.SVs, m.AssessIsolated(sg, tr, Options{}))
				}
				return res
			}

			want := run(scratchSG)
			got := run(chainSG)
			if !reflect.DeepEqual(stripPointers(got), stripPointers(want)) {
				t.Fatalf("MCC diverges between the flat graph's SG and the clone chain's:\n got  %+v\n want %+v", got, want)
			}
			// And over the final clone directly (same graph content reached
			// through shared COW pages rather than a single-owner build).
			cloneRes := run(linegraph.Build(chain))
			if !reflect.DeepEqual(stripPointers(cloneRes), stripPointers(want)) {
				t.Fatalf("MCC diverges between flat graph and COW clone chain:\n got  %+v\n want %+v", cloneRes, want)
			}
		})
	}
}

// comparableResult is Result with triple pointers flattened to values, so
// DeepEqual compares content rather than addresses.
type comparableResult struct {
	Assessments []comparableAssessment
	SVs         []comparableTrusted
	LVs         []kg.Triple
	NodesScored int
}

type comparableAssessment struct {
	Key               string
	GraphConfidence   float64
	EliminatedByGraph bool
	FastPath          bool
	Trusted           []comparableTrusted
	Rejected          []kg.Triple
	NodeConfidence    []float64
}

type comparableTrusted struct {
	Triple     kg.Triple
	Confidence float64
	Verified   bool
}

func stripPointers(r Result) comparableResult {
	out := comparableResult{NodesScored: r.NodesScored}
	conv := func(tns []TrustedNode) []comparableTrusted {
		o := make([]comparableTrusted, len(tns))
		for i, tn := range tns {
			o[i] = comparableTrusted{Triple: *tn.Triple, Confidence: tn.Confidence, Verified: tn.Verified}
		}
		return o
	}
	deref := func(ts []*kg.Triple) []kg.Triple {
		o := make([]kg.Triple, len(ts))
		for i, t := range ts {
			o[i] = *t
		}
		return o
	}
	for _, a := range r.Assessments {
		out.Assessments = append(out.Assessments, comparableAssessment{
			Key:               a.Node.Key,
			GraphConfidence:   a.GraphConfidence,
			EliminatedByGraph: a.EliminatedByGraph,
			FastPath:          a.FastPath,
			Trusted:           conv(a.Trusted),
			Rejected:          deref(a.Rejected),
			NodeConfidence:    a.NodeConfidence,
		})
	}
	out.SVs = conv(r.SVs)
	out.LVs = deref(r.LVs)
	return out
}

// walkLineGraph lists sg's homologous nodes in the graph's key order, each
// found by its key, and its isolated triples in ID order: one walk over the
// graph's key postings, which the product never makes.
func walkLineGraph(sg *linegraph.SG) (nodes []*linegraph.HomologousNode, isolated []*kg.Triple) {
	g := sg.Graph()
	var singles []int32
	g.ForEachKeyPosting(func(subjH, predH int32, posting []int32) {
		switch {
		case len(posting) == 1:
			singles = append(singles, posting[0])
		case len(posting) >= 2:
			n, _ := sg.Lookup(g.EntityAt(subjH).ID, g.PredicateAt(predH))
			nodes = append(nodes, n)
		}
	})
	slices.SortFunc(singles, kg.CompareTripleIDs)
	for _, h := range singles {
		isolated = append(isolated, g.TripleAt(h))
	}
	return nodes, isolated
}
