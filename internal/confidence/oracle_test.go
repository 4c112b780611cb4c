package confidence

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/textutil"
)

// This file keeps the seed's pairwise MCC as the reference oracle: a map
// distribution per value, S rebuilt from raw strings for every ordered pair
// (once for C(G), again for every Sₙ(v)), peer slices, and map-counted
// history credits. The production code shares one matrix per candidate; the
// property test below holds it to this implementation.

type oracleDist map[string]float64

func oracleNewDist(tokenSlices ...[]string) oracleDist {
	d := oracleDist{}
	for _, toks := range tokenSlices {
		for _, t := range toks {
			d[t]++
		}
	}
	var tot float64
	for _, v := range d {
		tot += v
	}
	if tot == 0 {
		return d
	}
	for k, v := range d {
		d[k] = v / tot
	}
	return d
}

func (d oracleDist) entropy() float64 {
	var h float64
	for _, p := range d {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

func oracleValueDist(values []string) oracleDist {
	var slices [][]string
	for _, v := range values {
		toks := textutil.Tokenize(v)
		if len(toks) > 0 {
			slices = append(slices, toks)
		}
	}
	return oracleNewDist(slices...)
}

func oracleSimilarity(valuesI, valuesJ []string) float64 {
	pi := oracleValueDist(valuesI)
	pj := oracleValueDist(valuesJ)
	if len(pi) == 0 || len(pj) == 0 {
		return 0
	}
	hi, hj := pi.entropy(), pj.entropy()
	if hi+hj == 0 {
		if len(pi) != len(pj) {
			return 0
		}
		for t := range pi {
			if _, ok := pj[t]; !ok {
				return 0
			}
		}
		return 1
	}
	s := 2 * oracleMutualInformation(pi, pj) / (hi + hj)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func oracleMutualInformation(pi, pj oracleDist) float64 {
	var overlap float64
	diag := map[string]float64{}
	for t, p := range pi {
		if q, ok := pj[t]; ok {
			m := math.Min(p, q)
			diag[t] = m
			overlap += m
		}
	}
	residual := 1 - overlap
	var info float64
	for t, m := range diag {
		if m > 0 {
			info += m * math.Log(m/(pi[t]*pj[t]))
		}
	}
	if residual <= 1e-12 {
		return info
	}
	for x, px := range pi {
		rx := px - diag[x]
		if rx <= 0 {
			continue
		}
		for y, py := range pj {
			ry := py - diag[y]
			if ry <= 0 {
				continue
			}
			pxy := rx * ry / residual
			if pxy > 0 {
				info += pxy * math.Log(pxy/(px*py))
			}
		}
	}
	return info
}

func oracleGraphConfidence(nodeValues [][]string) float64 {
	n := len(nodeValues)
	if n < 2 {
		return 1
	}
	var total float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total += oracleSimilarity(nodeValues[i], nodeValues[j])
		}
	}
	return total / float64(n*n-n)
}

func oracleNodeConsistency(values []string, peers [][]string) float64 {
	if len(peers) == 0 {
		return 0
	}
	var total float64
	for _, p := range peers {
		total += oracleSimilarity(values, p)
	}
	return total / float64(len(peers))
}

func oracleHistoryCredits(members []*kg.Triple, trusted []TrustedNode) []histCredit {
	provided := map[string]int{}
	accepted := map[string]int{}
	for _, t := range members {
		provided[t.Source]++
	}
	for _, tn := range trusted {
		accepted[tn.Triple.Source]++
	}
	out := make([]histCredit, 0, len(provided))
	for src, p := range provided {
		out = append(out, histCredit{source: src, provided: p, accepted: accepted[src]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].source < out[j].source })
	return out
}

// oracleAssessment is the seed's Assessment, which recorded C(v) per member
// triple ID.
type oracleAssessment struct {
	Assessment
	NodeConfidence map[string]float64
}

// oracleResult is the seed's Result.
type oracleResult struct {
	Assessments []oracleAssessment
	SVs         []TrustedNode
	LVs         []*kg.Triple
	NodesScored int
}

func removeTriple(ts []*kg.Triple, t *kg.Triple) []*kg.Triple {
	for i, x := range ts {
		if x.Handle() == t.Handle() {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// oracleRun is the seed's deferred MCC run. It shares with production only
// what the restructuring did not touch: the history store, the expert model,
// the fast-path selection helpers and the sigmoid.
func oracleRun(m *MCC, sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) (oracleResult, *HistoryDelta) {
	var res oracleResult
	delta := &HistoryDelta{}
	if len(candidates) == 0 {
		return res, delta
	}
	type cand struct {
		node    *linegraph.HomologousNode
		members []*kg.Triple
		vals    [][]string
		gc      float64
	}
	cands := make([]cand, 0, len(candidates))
	anyAbove := false
	for _, n := range candidates {
		members := sg.MemberTriples(n)
		vals := make([][]string, len(members))
		for i, t := range members {
			vals[i] = []string{t.Object}
		}
		gc := oracleGraphConfidence(vals)
		if gc >= m.cfg.GraphThreshold {
			anyAbove = true
		}
		cands = append(cands, cand{n, members, vals, gc})
	}
	for _, c := range cands {
		a := oracleAssessment{Assessment: Assessment{Node: c.node, GraphConfidence: c.gc}, NodeConfidence: map[string]float64{}}
		members := c.members
		switch {
		case !opts.DisableGraphLevel && anyAbove && c.gc < m.cfg.GraphThreshold:
			a.EliminatedByGraph = true
			a.Rejected = members
		case !opts.DisableGraphLevel && c.gc >= m.cfg.GraphThreshold:
			a.FastPath = true
			top := topByWeight(majorityCluster(members), m.cfg.FastPathNodes)
			for _, t := range top {
				a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: c.gc * t.Weight, Verified: true})
			}
			for _, t := range members {
				if !containsTriple(top, t) {
					a.Rejected = append(a.Rejected, t)
				}
			}
		case opts.DisableNodeLevel:
			for _, t := range members {
				a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: t.Weight})
			}
		default:
			oracleScoreMembers(m, sg, members, c.vals, &a)
			res.NodesScored += len(members)
		}
		delta.entries = append(delta.entries, oracleHistoryCredits(members, a.Trusted)...)
		res.Assessments = append(res.Assessments, a)
		res.SVs = append(res.SVs, a.Trusted...)
		res.LVs = append(res.LVs, a.Rejected...)
	}
	return res, delta
}

func oracleScoreMembers(m *MCC, sg *linegraph.SG, members []*kg.Triple, vals [][]string, a *oracleAssessment) {
	if len(members) == 0 {
		return
	}
	g := sg.Graph()
	maxDeg := g.MaxDegree()
	raw := make([]float64, len(members))
	var mean float64
	if m.cfg.Alpha > 0 {
		for i, t := range members {
			raw[i] = m.model.JudgeAuthority(llm.AuthorityContext{
				Node:          t.Handle(),
				Source:        t.Source,
				Degree:        g.Degree(g.Subject(t)),
				MaxDegree:     maxDeg,
				LocalStrength: t.Weight,
				TypeWeight:    typeWeight(g, t),
				PathSupport:   g.TwoHopPathSupport(t),
			})
			mean += raw[i]
		}
		mean /= float64(len(members))
	}
	peerBuf := make([][]string, 0, len(members)-1)
	for i, t := range members {
		peers := append(peerBuf[:0], vals[:i]...)
		peers = append(peers, vals[i+1:]...)
		sn := oracleNodeConsistency(vals[i], peers)
		var authLLM, authHist float64
		if m.cfg.Alpha > 0 {
			authLLM = Sigmoid(m.cfg.Beta, raw[i]-mean)
		}
		if m.cfg.Alpha < 1 {
			authHist = m.hist.Historical(t.Source, []float64{t.Weight}, len(members), 1-m.cfg.Alpha)
		}
		av := m.cfg.Alpha*authLLM + (1-m.cfg.Alpha)*authHist
		cv := sn + av
		a.NodeConfidence[kg.TripleID(t.Handle())] = cv
		if cv > m.cfg.NodeThreshold {
			a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: cv, Verified: true})
		} else {
			a.Rejected = append(a.Rejected, t)
		}
	}
	const promoteGap = 0.02
	if len(a.Trusted) == 0 && len(members) > 0 {
		score := func(t *kg.Triple) float64 { return a.NodeConfidence[kg.TripleID(t.Handle())] * t.Weight }
		best := 0.0
		for _, t := range members {
			if sc := score(t); sc > best {
				best = sc
			}
		}
		for _, t := range members {
			if score(t) >= best-promoteGap {
				a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: a.NodeConfidence[kg.TripleID(t.Handle())], Verified: true})
				a.Rejected = removeTriple(a.Rejected, t)
			}
		}
	}
}

// oracleVocab is the value pool of the random groups: duplicates arise by
// drawing it twice, and it covers empty, punctuation-only, repeated-token,
// case-variant and multi-token values.
var oracleVocab = []string{
	"", "---", "?!", "Delayed", "delayed", "DELAYED.", "On time", "on time on time",
	"Cancelled", "a a a b", "a b", "b a", "a", "2024-10-01 14:30", "2024-10-01 16:45",
	"gate B12 terminal 3 terminal 3", "gate B12", "terminal 3 gate b12 gate",
	"delayed by typhoon warning at gate b12 until 16 45 45",
	"Michael Mann", "Mann, Michael", "Christopher Nolan", "İstanbul", "x y z w v u t s",
}

// randomGroups builds a graph of 1–3 candidate groups for one subject, each of
// 1–12 members over 1–5 sources, and returns the candidates in key order.
func randomGroups(t *testing.T, rng *rand.Rand) (*linegraph.SG, []*linegraph.HomologousNode) {
	t.Helper()
	g := kg.New()
	g.AddEntity("subj", "Thing", "d")
	nGroups := 1 + rng.Intn(3)
	var stale []string
	for gi := 0; gi < nGroups; gi++ {
		members := 1 + rng.Intn(12)
		// A narrow draw makes duplicates and consensus common; a wide one
		// makes conflict common.
		width := 1 + rng.Intn(len(oracleVocab))
		offset := rng.Intn(len(oracleVocab))
		sources := 1 + rng.Intn(5)
		for mi := 0; mi < members; mi++ {
			obj := oracleVocab[(offset+rng.Intn(width))%len(oracleVocab)]
			if obj == "" {
				// The graph rejects empty objects; whitespace tokenises to
				// the same empty profile.
				obj = strings.Repeat(" ", 1+rng.Intn(2))
			}
			if _, err := g.AddTriple(kg.Fact{
				Subject: "subj", Predicate: fmt.Sprintf("p%d", gi), Object: obj,
				Source: fmt.Sprintf("s%d", rng.Intn(sources)), Weight: 0.05 + 0.95*rng.Float64(),
			}); err != nil {
				t.Fatalf("AddTriple(%q): %v", obj, err)
			}
		}
		if members == 1 {
			// A one-member key is an isolated point, not a homologous node.
			// Give it a second member, removed once SG′ is built, so MCC gets
			// the single-member node a stale SG′ holds.
			id, err := g.AddTriple(kg.Fact{Subject: "subj", Predicate: fmt.Sprintf("p%d", gi), Object: "stale", Source: "stale"})
			if err != nil {
				t.Fatal(err)
			}
			stale = append(stale, id)
		}
	}
	// Look the nodes up before removing the stale members: SG′ is a view, so
	// afterwards a one-member key is an isolated point again. A node keeps
	// the posting it was built from, which RemoveTriple replaces rather than
	// edits, so the node still lists the removed handle and MemberTriples
	// drops it.
	sg := linegraph.Build(g)
	var cands []*linegraph.HomologousNode
	for gi := 0; gi < nGroups; gi++ {
		if n, ok := sg.Lookup("subj", fmt.Sprintf("p%d", gi)); ok {
			cands = append(cands, n)
		}
	}
	for _, id := range stale {
		g.RemoveTriple(id)
	}
	return sg, cands
}

// TestRunMatchesPairwiseOracle holds the shared-matrix MCC to the pairwise
// oracle over seeded random groups, all ablations, and several rounds per
// engine with each round's delta applied, so the evolving history is compared
// too: the same
// trusted and rejected triples in the same order, the same stage flags and
// history credits, and confidences within 1e-12 (the oracle sums in map
// order, so its own low bits vary run to run).
func TestRunMatchesPairwiseOracle(t *testing.T) {
	const tol = 1e-12
	ids := func(ts []*kg.Triple) []string {
		out := make([]string, len(ts))
		for i, tr := range ts {
			out[i] = kg.TripleID(tr.Handle())
		}
		return out
	}
	trustedIDs := func(tns []TrustedNode) []string {
		out := make([]string, len(tns))
		for i, tn := range tns {
			out[i] = kg.TripleID(tn.Triple.Handle())
		}
		return out
	}
	ablations := []Options{
		{},
		{DisableGraphLevel: true},
		{DisableNodeLevel: true},
		{DisableGraphLevel: true, DisableNodeLevel: true},
	}
	configs := []Config{
		DefaultConfig(),
		{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99}, // node level forced
		{Alpha: 0, Beta: 0.5, NodeThreshold: 0.9, GraphThreshold: 0.8},    // history only
		{Alpha: 1, Beta: 2, NodeThreshold: 1.6, GraphThreshold: 0.3},      // LLM only; θ rejects all → promotion rule
	}
	scored, single := 0, 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sg, cands := randomGroups(t, rng)
		for _, n := range cands {
			if len(sg.MemberTriples(n)) == 1 {
				single++
			}
		}
		cfg := configs[rng.Intn(len(configs))]
		for _, opts := range ablations {
			name := fmt.Sprintf("seed %d cfg %+v opts %+v", seed, cfg, opts)
			got := New(cfg, llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
			want := New(cfg, llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
			for round := 0; round < 3; round++ {
				gr, gd := got.RunDeferred(sg, cands, opts)
				wr, wd := oracleRun(want, sg, cands, opts)
				if !reflect.DeepEqual(trustedIDs(gr.SVs), trustedIDs(wr.SVs)) || !reflect.DeepEqual(ids(gr.LVs), ids(wr.LVs)) {
					t.Fatalf("%s round %d: SVs/LVs diverge:\n got  %v / %v\n want %v / %v", name, round,
						trustedIDs(gr.SVs), ids(gr.LVs), trustedIDs(wr.SVs), ids(wr.LVs))
				}
				if gr.NodesScored != wr.NodesScored || len(gr.Assessments) != len(wr.Assessments) {
					t.Fatalf("%s round %d: NodesScored %d vs %d, assessments %d vs %d", name, round,
						gr.NodesScored, wr.NodesScored, len(gr.Assessments), len(wr.Assessments))
				}
				scored += gr.NodesScored
				for i, ga := range gr.Assessments {
					wa := wr.Assessments[i]
					if ga.Node != wa.Node || ga.EliminatedByGraph != wa.EliminatedByGraph || ga.FastPath != wa.FastPath {
						t.Fatalf("%s round %d cand %d: flags diverge: %+v vs %+v", name, round, i, ga, wa)
					}
					if !reflect.DeepEqual(ids(ga.Members), ids(sg.MemberTriples(ga.Node))) {
						t.Fatalf("%s round %d cand %d: Members are not the node's member triples", name, round, i)
					}
					if !reflect.DeepEqual(trustedIDs(ga.Trusted), trustedIDs(wa.Trusted)) || !reflect.DeepEqual(ids(ga.Rejected), ids(wa.Rejected)) {
						t.Fatalf("%s round %d cand %d: trusted/rejected diverge", name, round, i)
					}
					if math.Abs(ga.GraphConfidence-wa.GraphConfidence) > tol {
						t.Fatalf("%s round %d cand %d: C(G) %v vs oracle %v", name, round, i, ga.GraphConfidence, wa.GraphConfidence)
					}
					for j, tn := range ga.Trusted {
						if tn.Verified != wa.Trusted[j].Verified || math.Abs(tn.Confidence-wa.Trusted[j].Confidence) > tol {
							t.Fatalf("%s round %d cand %d: trusted[%d] %+v vs oracle %+v", name, round, i, j, tn, wa.Trusted[j])
						}
					}
					if len(ga.NodeConfidence) != len(wa.NodeConfidence) {
						t.Fatalf("%s round %d cand %d: %d node confidences, oracle %d", name, round, i, len(ga.NodeConfidence), len(wa.NodeConfidence))
					}
					if (ga.NodeConfidence != nil) != (!ga.EliminatedByGraph && !ga.FastPath && !opts.DisableNodeLevel && len(ga.Members) > 0) {
						t.Fatalf("%s round %d cand %d: NodeConfidence allocated outside the fine stage", name, round, i)
					}
					for j, cv := range ga.NodeConfidence {
						id := kg.TripleID(ga.Members[j].Handle())
						if w, ok := wa.NodeConfidence[id]; !ok || math.Abs(cv-w) > tol {
							t.Fatalf("%s round %d cand %d: C(%s) = %v, oracle %v", name, round, i, id, cv, w)
						}
					}
				}
				if !reflect.DeepEqual(gd.entries, wd.entries) {
					t.Fatalf("%s round %d: history delta diverges:\n got  %+v\n want %+v", name, round, gd.entries, wd.entries)
				}
				got.hist.Apply(gd)
				want.hist.Apply(wd)
				for s := 0; s < 5; s++ {
					src := fmt.Sprintf("s%d", s)
					if a, b := got.hist.Prh(src), want.hist.Prh(src); a != b {
						t.Fatalf("%s round %d: history of %s diverges: %v vs %v", name, round, src, a, b)
					}
				}
				if a, b := got.hist.Scans(), want.hist.Scans(); a != b {
					t.Fatalf("%s round %d: history scans %d vs %d", name, round, a, b)
				}
			}
		}
	}
	if scored == 0 {
		t.Fatal("no group reached the node-level stage; the property test compared nothing there")
	}
	if single == 0 {
		t.Fatal("no candidate had exactly one live member; the stale single-member node went untested")
	}
}

// TestSimilarityMatchesPairwiseOracle checks the exported wrappers against
// the oracle on multi-value sets, which MCC itself never builds.
func TestSimilarityMatchesPairwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := func() []string {
		out := make([]string, rng.Intn(4))
		for i := range out {
			out[i] = oracleVocab[rng.Intn(len(oracleVocab))]
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		sets := make([][]string, rng.Intn(6))
		for j := range sets {
			sets[j] = set()
		}
		a, b := set(), set()
		if got, want := Similarity(a, b), oracleSimilarity(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Similarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
		if got, want := Entropy(a), oracleValueDist(a).entropy(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Entropy(%q) = %v, oracle %v", a, got, want)
		}
		if got, want := GraphConfidence(sets), oracleGraphConfidence(sets); math.Abs(got-want) > 1e-12 {
			t.Fatalf("GraphConfidence(%q) = %v, oracle %v", sets, got, want)
		}
		if got, want := NodeConsistency(a, sets), oracleNodeConsistency(a, sets); math.Abs(got-want) > 1e-12 {
			t.Fatalf("NodeConsistency(%q, %q) = %v, oracle %v", a, sets, got, want)
		}
	}
}

// conflictGroup builds one homologous group of n members whose object values
// cycle through `distinct` different multi-token strings, so C(G) falls below
// the graph threshold and the node-level stage runs.
func conflictGroup(tb testing.TB, n, distinct int) (*linegraph.SG, []*linegraph.HomologousNode) {
	tb.Helper()
	g := kg.New()
	g.AddEntity("CA981", "Flight", "flights")
	for i := 0; i < n; i++ {
		v := i % distinct
		if _, err := g.AddTriple(kg.Fact{
			Subject: "ca981", Predicate: "status",
			Object: fmt.Sprintf("Status %d: delayed until %02d:%02d at gate G%d", v, 10+v, 3*v, v),
			Source: fmt.Sprintf("source-%d", i%5), Weight: 0.5 + 0.03*float64(i%10),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	sg := linegraph.Build(g)
	node, ok := sg.Lookup("ca981", "status")
	if !ok {
		tb.Fatal("group not found")
	}
	return sg, []*linegraph.HomologousNode{node}
}

// TestRunAllocCeiling fails if MCC returns to rebuilding token distributions
// per pair: on an 8-member all-distinct group the node-level path costs a
// fixed handful of allocations per distinct value (its token profile) plus a
// constant for the matrix and the result, where the pairwise rebuild cost
// over 1,500. α = 0 keeps the expert model — and the graph walks that feed
// it — out of the count; α = 0.5 adds them, and fails if the expert's path
// support goes back to normalising every sibling's value per member (554)
// or its seeded coin to formatting a key per call.
func TestRunAllocCeiling(t *testing.T) {
	for _, alpha := range []float64{0, 0.5} {
		sg, cands := conflictGroup(t, 8, 8)
		m := New(Config{Alpha: alpha, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99},
			llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
		if res, _ := m.RunDeferred(sg, cands, Options{}); res.NodesScored != 8 {
			t.Fatalf("α=%v: group must take the node-level path, scored %d", alpha, res.NodesScored)
		}
		allocs := testing.AllocsPerRun(50, func() { m.RunDeferred(sg, cands, Options{}) })
		t.Logf("α=%v: RunDeferred over 8 distinct members: %.0f allocs", alpha, allocs)
		if allocs > 100 {
			t.Fatalf("α=%v: RunDeferred over 8 distinct members: %.0f allocs, ceiling 100", alpha, allocs)
		}
	}
}

// TestFinishAllocCeiling holds the history-dependent half to buffers sized
// once from the prepared half: finishing a node-scored group allocates the
// assessments, SVs, LVs, the C(v) slots, the delta and its credits — six
// objects whatever the member count — where growing them by append cost
// about one more per doubling of each, and the per-member C(v) map several.
func TestFinishAllocCeiling(t *testing.T) {
	for _, alpha := range []float64{0, 0.5} {
		for _, n := range []int{2, 8, 16} {
			sg, cands := conflictGroup(t, n, n)
			m := New(Config{Alpha: alpha, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99},
				llm.NewSim(llm.DefaultConfig()), NewHistoryStore())
			p := m.Prepare(sg, cands, Options{})
			if res, _ := m.Finish(p); res.NodesScored != n {
				t.Fatalf("α=%v n=%d: group must take the node-level path, scored %d", alpha, n, res.NodesScored)
			}
			allocs := testing.AllocsPerRun(50, func() { m.Finish(p) })
			if allocs > 6 {
				t.Fatalf("α=%v: Finish over %d distinct members: %.0f allocs, ceiling 6", alpha, n, allocs)
			}
		}
	}
}
