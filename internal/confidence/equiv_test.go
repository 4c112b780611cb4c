package confidence

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
)

// TestMCCEquivalentAcrossGraphRepresentations is the top-of-stack
// observation-equivalence property for the interned graph core: the same
// corpus reaches MCC through three different representations — the original
// graph with a from-scratch SG, a delta-maintained SG over a chain of
// copy-on-write clones, and the final clone itself — and Algorithm 1 must
// produce bit-identical Results (assessments, SVs, LVs, node scores) on all
// of them. MCC consumes every hot observable the core rewired (member
// resolution by handle, key postings, degrees, MaxDegree, two-hop path
// support), so equality here pins the whole consistency-check pipeline.
func TestMCCEquivalentAcrossGraphRepresentations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// Ingest the same batches into: flat (one graph, scratch build)
			// and chain (clone per batch + BuildDelta), the serving engine's
			// commit pattern.
			flat := kg.New()
			chain := kg.New()
			var chainSG *linegraph.SG
			for batch := 0; batch < 5; batch++ {
				next := chain.Clone()
				var newIDs []string
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
					id, err := next.AddTriple(kg.Fact{
						Subject: subj, Predicate: pred, Object: obj, Source: src, Weight: w,
					})
					if err != nil {
						t.Fatal(err)
					}
					newIDs = append(newIDs, id)
				}
				chainSG = linegraph.BuildDelta(chainSG, next, newIDs)
				chain = next
			}
			scratchSG := linegraph.Build(flat)

			run := func(sg *linegraph.SG) Result {
				// Fresh deterministic model + history per run: runApply
				// mutates source history, so shared state would leak
				// across runs.
				m := New(DefaultConfig(), llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
				keys := make([]string, 0, sg.NumNodes())
				sg.ForEachNode(func(k string, _ *linegraph.HomologousNode) {
					keys = append(keys, k)
				})
				sort.Strings(keys)
				cands := make([]*linegraph.HomologousNode, len(keys))
				for i, k := range keys {
					cands[i], _ = sg.Node(k)
				}
				res := runApply(m, sg, cands, Options{})
				// Isolated points go through the authority-only path.
				for _, id := range sg.IsolatedIDs() {
					tr, ok := sg.Graph().Triple(id)
					if !ok {
						t.Fatalf("isolated id %s unresolvable", id)
					}
					res.SVs = append(res.SVs, m.AssessIsolated(sg, tr, Options{}))
				}
				return res
			}

			want := run(scratchSG)
			got := run(chainSG)
			if !reflect.DeepEqual(stripPointers(got), stripPointers(want)) {
				t.Fatalf("MCC diverges between scratch and delta-chained SG:\n got  %+v\n want %+v", got, want)
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
