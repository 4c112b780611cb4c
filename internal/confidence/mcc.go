package confidence

import (
	"sort"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/textutil"
)

// Config carries the hyper-parameters of §IV-A(c).
type Config struct {
	// Alpha balances LLM-assessed authority against historical authority in
	// Eq. (9). The paper's Fig. 7 peaks at 0.5.
	Alpha float64
	// Beta is the steepness of the Eq. (10) sigmoid; the paper sets 0.5.
	Beta float64
	// NodeThreshold is θ in Algorithm 1 (paper default 0.7). Note that
	// C(v) = Sₙ(v) + A(v) lives in [0, 2].
	NodeThreshold float64
	// GraphThreshold is the candidate-graph confidence cut-off (paper
	// default 0.5).
	GraphThreshold float64
	// FastPathNodes is how many top members a high-confidence subgraph
	// contributes directly ("for subgraphs with high confidence, only 1–2
	// nodes are required", §IV-C). 0 means the default of 2.
	FastPathNodes int
}

// DefaultConfig returns the paper's hyper-parameter settings.
func DefaultConfig() Config {
	return Config{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.5, FastPathNodes: 2}
}

// Options toggles the ablation switches of Table III.
type Options struct {
	// DisableGraphLevel removes the coarse subgraph filter ("w/o Graph
	// Level"): no candidate subgraph is eliminated and every member is
	// node-scored.
	DisableGraphLevel bool
	// DisableNodeLevel removes the fine filter ("w/o Node Level"): members
	// of surviving subgraphs pass through unscored.
	DisableNodeLevel bool
}

// Disabled reports whether both levels are off ("w/o MCC").
func (o Options) Disabled() bool { return o.DisableGraphLevel && o.DisableNodeLevel }

// TrustedNode is one retrieval node that survived confidence filtering,
// with the weight it should carry in the LLM context.
type TrustedNode struct {
	Triple     *kg.Triple
	Confidence float64 // C(v) for node-scored members, C(G)-scaled otherwise
	// Verified marks nodes that actually passed confidence scoring (fast
	// path or node-level). Pass-through nodes from ablated configurations
	// are unverified and reach the LLM context as raw claims.
	Verified bool
}

// Assessment is the outcome of MCC for one candidate homologous subgraph.
type Assessment struct {
	Node *linegraph.HomologousNode
	// Members is the node's member triples as MCC resolved them, in member
	// order. Shared with Rejected when the whole subgraph was eliminated;
	// read-only.
	Members         []*kg.Triple
	GraphConfidence float64
	// EliminatedByGraph marks subgraphs removed by the coarse stage.
	EliminatedByGraph bool
	// FastPath marks subgraphs that skipped node-level scoring.
	FastPath bool
	Trusted  []TrustedNode
	Rejected []*kg.Triple
	// NodeConfidence records C(v) per scored member triple ID. It is nil
	// unless the fine stage ran for this subgraph.
	NodeConfidence map[string]float64
}

// Result aggregates MCC over all candidate subgraphs of one query: SVs is
// the credible node set, LVs the eliminated one (Algorithm 1's outputs).
type Result struct {
	Assessments []Assessment
	SVs         []TrustedNode
	LVs         []*kg.Triple
	// NodesScored counts node-level confidence computations (the expensive
	// fine-ranking stage) for cost accounting.
	NodesScored int
}

// MCC executes multi-level confidence computing. One MCC instance carries
// the per-deployment state: the expert model and the source history.
type MCC struct {
	cfg   Config
	model llm.Model
	hist  *HistoryStore
}

// New builds an MCC engine.
func New(cfg Config, model llm.Model, hist *HistoryStore) *MCC {
	if cfg.FastPathNodes <= 0 {
		cfg.FastPathNodes = 2
	}
	if hist == nil {
		hist = NewHistoryStore()
	}
	return &MCC{cfg: cfg, model: model, hist: hist}
}

// History exposes the underlying history store (for cost accounting and
// inspection).
func (m *MCC) History() *HistoryStore { return m.hist }

// Config returns the engine's configuration.
func (m *MCC) Config() Config { return m.cfg }

// Run implements Algorithm 1's MCC procedure over the candidate homologous
// subgraphs retrieved for one query.
//
// Stage 1 (coarse, graph level): C(G) is computed per candidate (Eq. 7).
// When at least one candidate clears the graph threshold, candidates below
// it are eliminated outright — the case-study behaviour where the
// forum-sourced subgraph is dropped. If no candidate clears the bar, all are
// retained and handed to the fine stage ("for subgraphs with low confidence,
// more nodes need to be extracted").
//
// Stage 2 (fine, node level): members of surviving high-confidence subgraphs
// take the fast path (top-FastPathNodes by weight, no scoring); members of
// low-confidence subgraphs are scored with C(v) = Sₙ(v) + A(v) and filtered
// by θ. After the query, per-source history is updated with the acceptance
// outcome (the incremental estimation of Eq. 11): Run applies each
// candidate's update as soon as the candidate is assessed, so within one
// call later candidates see earlier candidates' credits.
func (m *MCC) Run(sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) Result {
	res, _ := m.run(sg, candidates, opts, false)
	return res
}

// RunDeferred is Run for parallel executors: history reads all observe the
// state at call time and no update is applied — the acceptance credits are
// returned as a HistoryDelta for the caller to Apply once the parallel phase
// has joined. Because every concurrent RunDeferred sees the same frozen
// history, evaluation order (and therefore worker count) cannot change any
// confidence score; applying the deltas afterwards in input order makes the
// whole phase bit-identical to a sequential deferred run.
func (m *MCC) RunDeferred(sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) (Result, *HistoryDelta) {
	return m.run(sg, candidates, opts, true)
}

func (m *MCC) run(sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options, deferred bool) (Result, *HistoryDelta) {
	var res Result
	var delta *HistoryDelta
	if deferred {
		delta = &HistoryDelta{}
	}
	if len(candidates) == 0 {
		return res, delta
	}
	// Stage 1: graph-level confidence. Each candidate's members are resolved
	// once — handle-indexed loads off the interned graph core — and their
	// pairwise similarity is evaluated once; C(G) here and every Sₙ(v) of the
	// fine stage read the same matrix.
	type cand struct {
		node    *linegraph.HomologousNode
		members []*kg.Triple
		sim     simMatrix
		gc      float64
	}
	cands := make([]cand, 0, len(candidates))
	anyAbove := false
	for _, n := range candidates {
		members := sg.MemberTriples(n)
		sim := memberSimilarity(members)
		// C(G) is reported through the Assessment, never written back to the
		// node: homologous nodes are shared across serving snapshots and must
		// stay immutable under concurrent queries.
		gc := sim.graphConfidence()
		if gc >= m.cfg.GraphThreshold {
			anyAbove = true
		}
		cands = append(cands, cand{n, members, sim, gc})
	}
	res.Assessments = make([]Assessment, 0, len(cands))
	var credits []histCredit // Run's per-candidate credits, reused
	for _, c := range cands {
		a := Assessment{Node: c.node, Members: c.members, GraphConfidence: c.gc}
		members := c.members
		switch {
		case !opts.DisableGraphLevel && anyAbove && c.gc < m.cfg.GraphThreshold:
			// Coarse elimination: a more consistent alternative exists.
			a.EliminatedByGraph = true
			a.Rejected = members
		case !opts.DisableGraphLevel && c.gc >= m.cfg.GraphThreshold:
			// Fast path: consistent subgraph, 1–2 nodes from the dominant
			// value cluster suffice. This is pure graph-level work, so it
			// remains active under "w/o Node Level".
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
			// "w/o Node Level": surviving members pass through unscored and
			// unverified.
			for _, t := range members {
				a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: t.Weight})
			}
		default:
			// Fine stage: score every member.
			m.scoreMembers(sg, members, c.sim, &a)
			res.NodesScored += len(members)
		}
		if deferred {
			delta.entries = appendHistoryCredits(delta.entries, members, a.Trusted)
		} else {
			credits = appendHistoryCredits(credits[:0], members, a.Trusted)
			for _, hc := range credits {
				m.hist.Update(hc.source, hc.provided, hc.accepted)
			}
		}
		res.Assessments = append(res.Assessments, a)
		res.SVs = append(res.SVs, a.Trusted...)
		res.LVs = append(res.LVs, a.Rejected...)
	}
	return res, delta
}

// AssessIsolated handles isolated points (single-claim keys): they cannot be
// cross-checked, so their confidence is authority-only, damped by the lack
// of corroboration.
func (m *MCC) AssessIsolated(sg *linegraph.SG, t *kg.Triple, opts Options) TrustedNode {
	if opts.Disabled() || opts.DisableNodeLevel {
		return TrustedNode{Triple: t, Confidence: t.Weight}
	}
	auth := m.authority(sg, t, 0, 1)
	return TrustedNode{Triple: t, Confidence: auth * t.Weight, Verified: true}
}

// scoreMembers runs Algorithm 1's Confidence_Computing over each member:
// C(v) = Sₙ(v) + A(v), filtered by θ. sim is the members' similarity matrix,
// built once by run; only the history-dependent authority and the θ cut are
// evaluated per member here.
func (m *MCC) scoreMembers(sg *linegraph.SG, members []*kg.Triple, sim simMatrix, a *Assessment) {
	if len(members) == 0 {
		// A candidate node can resolve to zero live members when the graph
		// was mutated destructively after the SG was built (perturbation
		// harness before RebuildSG); there is nothing to score.
		return
	}
	g := sg.Graph()
	maxDeg := g.MaxDegree()
	// Raw expert scores, centred before the sigmoid (Eq. 10). Skipped
	// entirely when α = 0 (pure historical authority, Fig. 7's left end).
	raw := make([]float64, len(members))
	var mean float64
	if m.cfg.Alpha > 0 {
		for i, t := range members {
			raw[i] = m.model.JudgeAuthority(llm.AuthorityContext{
				NodeID:        t.ID,
				Source:        t.Source,
				Degree:        g.Degree(t.Subject),
				MaxDegree:     maxDeg,
				LocalStrength: t.Weight,
				TypeWeight:    typeWeight(g, t),
				PathSupport:   g.TwoHopPathSupport(t),
			})
			mean += raw[i]
		}
		mean /= float64(len(members))
	}
	a.NodeConfidence = make(map[string]float64, len(members))
	for i, t := range members {
		// Sₙ(v): consistency against peers (Eq. 8).
		sn := sim.nodeConsistency(i)
		// A(v) = α·Auth_LLM + (1−α)·Auth_hist (Eq. 9), skipping whichever
		// component has zero weight (this is what makes α sweep query time,
		// Fig. 7).
		var authLLM, authHist float64
		if m.cfg.Alpha > 0 {
			authLLM = Sigmoid(m.cfg.Beta, raw[i]-mean)
		}
		if m.cfg.Alpha < 1 {
			authHist = m.hist.Historical(t.Source, []float64{t.Weight}, len(members), 1-m.cfg.Alpha)
		}
		av := m.cfg.Alpha*authLLM + (1-m.cfg.Alpha)*authHist
		cv := sn + av
		a.NodeConfidence[t.ID] = cv
		if cv > m.cfg.NodeThreshold {
			a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: cv, Verified: true})
		} else {
			a.Rejected = append(a.Rejected, t)
		}
	}
	// Robustness rule (§IV-C): a low-confidence subgraph must still yield an
	// answer candidate. If θ rejected every member, promote the nodes whose
	// extraction-weighted confidence C(v)·w sits within a small absolute gap
	// of the best — authority, source history and extraction strength break
	// ties that consistency alone cannot, while genuine multi-truth pairs
	// (near-equal scores) are all retained.
	const promoteGap = 0.02
	if len(a.Trusted) == 0 && len(members) > 0 {
		score := func(t *kg.Triple) float64 { return a.NodeConfidence[t.ID] * t.Weight }
		best := 0.0
		for _, t := range members {
			if sc := score(t); sc > best {
				best = sc
			}
		}
		for _, t := range members {
			if score(t) >= best-promoteGap {
				a.Trusted = append(a.Trusted, TrustedNode{Triple: t, Confidence: a.NodeConfidence[t.ID], Verified: true})
				a.Rejected = removeTriple(a.Rejected, t)
			}
		}
	}
}

func removeTriple(ts []*kg.Triple, t *kg.Triple) []*kg.Triple {
	for i, x := range ts {
		if x.ID == t.ID {
			return append(ts[:i], ts[i+1:]...)
		}
	}
	return ts
}

// authority computes A(v) for a lone triple (no peers to centre against).
func (m *MCC) authority(sg *linegraph.SG, t *kg.Triple, centre float64, queryData int) float64 {
	g := sg.Graph()
	var authLLM, authHist float64
	if m.cfg.Alpha > 0 {
		raw := m.model.JudgeAuthority(llm.AuthorityContext{
			NodeID:        t.ID,
			Source:        t.Source,
			Degree:        g.Degree(t.Subject),
			MaxDegree:     g.MaxDegree(),
			LocalStrength: t.Weight,
			TypeWeight:    typeWeight(g, t),
			PathSupport:   g.TwoHopPathSupport(t),
		})
		authLLM = Sigmoid(m.cfg.Beta, raw-centre)
	}
	if m.cfg.Alpha < 1 {
		authHist = m.hist.Historical(t.Source, []float64{t.Weight}, queryData, 1-m.cfg.Alpha)
	}
	return m.cfg.Alpha*authLLM + (1-m.cfg.Alpha)*authHist
}

// appendHistoryCredits folds one candidate's members and surviving trusted
// nodes into per-source acceptance counts (the incremental estimation of the
// Eq. 11 preamble) and appends them to dst, sorted by source for
// deterministic delta contents. A group has a handful of sources, so the
// counts live in the appended tail itself, kept sorted by insertion.
func appendHistoryCredits(dst []histCredit, members []*kg.Triple, trusted []TrustedNode) []histCredit {
	base := len(dst)
	for _, t := range members {
		i, ok := creditIndex(dst[base:], t.Source)
		i += base
		if !ok {
			dst = append(dst, histCredit{})
			copy(dst[i+1:], dst[i:])
			dst[i] = histCredit{source: t.Source}
		}
		dst[i].provided++
	}
	for _, tn := range trusted {
		if i, ok := creditIndex(dst[base:], tn.Triple.Source); ok {
			dst[base+i].accepted++
		}
	}
	return dst
}

// creditIndex locates source in credits sorted by source: its index if
// present, else the index to insert it at.
func creditIndex(credits []histCredit, source string) (int, bool) {
	i := 0
	for i < len(credits) && credits[i].source < source {
		i++
	}
	return i, i < len(credits) && credits[i].source == source
}

// memberSimilarity builds the similarity matrix of one candidate's members:
// one token profile per distinct object value, S once per unordered pair of
// them.
func memberSimilarity(members []*kg.Triple) simMatrix {
	n := len(members)
	if n < 2 {
		return simMatrix{}
	}
	row := make([]int, n)
	vals := make([]distinctValue, 0, n)
	for i, t := range members {
		r := len(vals)
		for j := 0; j < i; j++ {
			if members[j].Object == t.Object {
				r = row[j]
				break
			}
		}
		if r == len(vals) {
			vals = append(vals, distinctValue{dist: textutil.NewDist(textutil.Tokenize(t.Object))})
		} else {
			vals[r].shared = true
		}
		row[i] = r
	}
	return newSimMatrix(row, vals)
}

func typeWeight(g *kg.Graph, t *kg.Triple) float64 {
	if e, ok := g.Entity(t.Subject); ok && e.Type != "" && e.Type != "Entity" {
		return 0.8 // typed entities carry more schema evidence
	}
	return 0.5
}

// majorityCluster returns the members whose object value belongs to the
// largest agreement cluster (normalised string equality); ties break toward
// the lexicographically smaller value for determinism.
func majorityCluster(members []*kg.Triple) []*kg.Triple {
	groups := map[string][]*kg.Triple{}
	for _, t := range members {
		key := kg.CanonicalID(t.Object)
		groups[key] = append(groups[key], t)
	}
	bestKey := ""
	for key, g := range groups {
		if bestKey == "" || len(g) > len(groups[bestKey]) ||
			(len(g) == len(groups[bestKey]) && key < bestKey) {
			bestKey = key
		}
	}
	return groups[bestKey]
}

func topByWeight(members []*kg.Triple, k int) []*kg.Triple {
	sorted := make([]*kg.Triple, len(members))
	copy(sorted, members)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		return sorted[i].ID < sorted[j].ID
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

func containsTriple(ts []*kg.Triple, t *kg.Triple) bool {
	for _, x := range ts {
		if x.ID == t.ID {
			return true
		}
	}
	return false
}
