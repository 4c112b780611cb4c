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
	// order, shared with every evaluation finished from the same prepared
	// half; read-only.
	Members         []*kg.Triple
	GraphConfidence float64
	// EliminatedByGraph marks subgraphs removed by the coarse stage.
	EliminatedByGraph bool
	// FastPath marks subgraphs that skipped node-level scoring.
	FastPath bool
	// Trusted and Rejected are this candidate's spans of Result.SVs and
	// Result.LVs; read-only.
	Trusted  []TrustedNode
	Rejected []*kg.Triple
	// NodeConfidence records C(v) per member, aligned with Members. It is nil
	// unless the fine stage ran for this subgraph.
	NodeConfidence []float64
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
	model *llm.Sim
	hist  *HistoryStore
}

// New builds an MCC engine.
func New(cfg Config, model *llm.Sim, hist *HistoryStore) *MCC {
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

// RunDeferred implements Algorithm 1's MCC procedure over the candidate
// homologous subgraphs retrieved for one query. It is Prepare followed by
// Finish.
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
// by θ.
//
// After the query, per-source history is updated with the acceptance outcome
// (the incremental estimation of Eq. 11). RunDeferred only reads history —
// every read observes the state at call time — and returns the acceptance
// credits as a HistoryDelta for the caller to Apply once the query's parallel
// phase has joined. Because every concurrent evaluation sees the same frozen
// history, evaluation order (and therefore worker count) cannot change any
// confidence score; applying the deltas afterwards in input order makes the
// whole phase bit-identical to a sequential run.
func (m *MCC) RunDeferred(sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) (Result, *HistoryDelta) {
	return m.Finish(m.Prepare(sg, candidates, opts))
}

// route is the way a candidate takes through stage 2. It depends only on the
// candidate's C(G), whether any candidate clears the graph threshold, and the
// ablation switches — never on source history.
type route uint8

const (
	eliminated  route = iota // coarse elimination: a more consistent alternative exists
	fastPath                 // consistent subgraph: top members by weight, unscored
	passThrough              // "w/o Node Level": members pass unscored and unverified
	nodeScored               // fine stage: C(v) = Sₙ(v) + A(v), filtered by θ
)

// Prepared is the history-independent half of one MCC evaluation, a pure
// function of the snapshot's graph, the candidates, the ablation switches and
// the engine's Config. Per candidate it holds the resolved members, C(G)
// (Eq. 7) and the stage-2 route; the whole outcome and history credits of a
// candidate that is not node-scored; and for each node-scored member Sₙ(v)
// (Eq. 8) and the graph inputs the expert model judges its authority from.
// Only A(v) (Eqs. 9–11) reads source history, and Finish computes it. A
// Prepared is immutable once built: it may be finished any number of times,
// from any number of goroutines.
type Prepared struct {
	cands []preparedCand
	// Finish's output sizes summed over candidates: trusted and rejected
	// bound SVs and LVs, scored is NodesScored, credits the delta's length.
	trusted, rejected, scored, credits int
}

// preparedCand is one candidate's prepared half.
type preparedCand struct {
	node    *linegraph.HomologousNode
	members []*kg.Triple
	gc      float64
	route   route
	// trusted and rejected are a fast-path or pass-through candidate's
	// outcome; an eliminated candidate rejects its members.
	trusted  []TrustedNode
	rejected []*kg.Triple
	// credits are the candidate's per-source history credits, sorted by
	// source. A node-scored candidate's accepted counts are zero here; Finish
	// adds the members that survive.
	credits []histCredit
	// sn[i] is Sₙ of member i and auth[i] the expert's inputs for it (nil
	// when α = 0); node-scored candidates only.
	sn   []float64
	auth []llm.AuthorityContext
}

// Prepare computes the history-independent half of RunDeferred (see
// Prepared).
func (m *MCC) Prepare(sg *linegraph.SG, candidates []*linegraph.HomologousNode, opts Options) *Prepared {
	p := &Prepared{}
	if len(candidates) == 0 {
		return p
	}
	// Stage 1: graph-level confidence. Each candidate's members are resolved
	// once — handle-indexed loads off the interned graph core — and their
	// pairwise similarity is evaluated once; C(G) here and every Sₙ(v) of the
	// fine stage read the same matrix.
	p.cands = make([]preparedCand, len(candidates))
	sims := make([]simMatrix, len(candidates))
	anyAbove := false
	for i, n := range candidates {
		members := sg.MemberTriples(n)
		sims[i] = memberSimilarity(members)
		// C(G) is reported through the Assessment, never written back to the
		// node: a prepared node is shared by the concurrent queries that hit
		// its evidence memo entry and must stay immutable under them.
		gc := sims[i].graphConfidence()
		if gc >= m.cfg.GraphThreshold {
			anyAbove = true
		}
		p.cands[i] = preparedCand{node: n, members: members, gc: gc}
	}
	g := sg.Graph()
	for i := range p.cands {
		c := &p.cands[i]
		switch {
		case !opts.DisableGraphLevel && anyAbove && c.gc < m.cfg.GraphThreshold:
			c.route = eliminated
			p.rejected += len(c.members)
		case !opts.DisableGraphLevel && c.gc >= m.cfg.GraphThreshold:
			// Fast path: consistent subgraph, 1–2 nodes from the dominant
			// value cluster suffice. This is pure graph-level work, so it
			// remains active under "w/o Node Level".
			c.route = fastPath
			top := topByWeight(majorityCluster(c.members), m.cfg.FastPathNodes)
			c.trusted = make([]TrustedNode, len(top))
			for j, t := range top {
				c.trusted[j] = TrustedNode{Triple: t, Confidence: c.gc * t.Weight, Verified: true}
			}
			for _, t := range c.members {
				if !containsTriple(top, t) {
					c.rejected = append(c.rejected, t)
				}
			}
			p.trusted += len(c.trusted)
			p.rejected += len(c.rejected)
		case opts.DisableNodeLevel:
			// "w/o Node Level": surviving members pass through unscored and
			// unverified.
			c.route = passThrough
			c.trusted = make([]TrustedNode, len(c.members))
			for j, t := range c.members {
				c.trusted[j] = TrustedNode{Triple: t, Confidence: t.Weight}
			}
			p.trusted += len(c.trusted)
		default:
			// Fine stage: every member is scored; Sₙ(v) and the expert's
			// graph inputs are read off the snapshot here.
			c.route = nodeScored
			n := len(c.members)
			c.sn = make([]float64, n)
			for j := range c.sn {
				c.sn[j] = sims[i].nodeConsistency(j)
			}
			if m.cfg.Alpha > 0 && n > 0 {
				maxDeg := g.MaxDegree()
				c.auth = make([]llm.AuthorityContext, n)
				for j, t := range c.members {
					c.auth[j] = authorityContext(g, maxDeg, t)
				}
			}
			p.trusted += n
			p.rejected += n
			p.scored += n
		}
		c.credits = appendHistoryCredits(nil, c.members, c.trusted)
		p.credits += len(c.credits)
	}
	return p
}

// Finish evaluates the history-dependent half of RunDeferred on a prepared
// half: for each node-scored member, the expert's authority judgement (one
// JudgeAuthority call per member, metered as before), its centring and the
// Eq. 10 sigmoid, Auth_hist (Eq. 11) against the history as it stands now, θ
// and the promotion rule. Every other candidate's outcome is copied from p.
// History is only read; the acceptance credits come back as a HistoryDelta.
// The result's slices are sized once from p.
func (m *MCC) Finish(p *Prepared) (Result, *HistoryDelta) {
	var res Result
	delta := &HistoryDelta{}
	if len(p.cands) == 0 {
		return res, delta
	}
	res.Assessments = make([]Assessment, len(p.cands))
	res.SVs = presized[TrustedNode](p.trusted)
	res.LVs = presized[*kg.Triple](p.rejected)
	credits := presized[histCredit](p.credits)
	nc := make([]float64, p.scored) // every scored member's C(v), carved per candidate
	for i := range p.cands {
		c := &p.cands[i]
		a := &res.Assessments[i]
		*a = Assessment{Node: c.node, Members: c.members, GraphConfidence: c.gc}
		sv, lv, cr := len(res.SVs), len(res.LVs), len(credits)
		credits = append(credits, c.credits...)
		switch c.route {
		case eliminated:
			a.EliminatedByGraph = true
			res.LVs = append(res.LVs, c.members...)
		case nodeScored:
			// A candidate node can resolve to zero live members when the
			// graph was mutated destructively after the node was looked up
			// (the perturbation harness mutates a served graph in place);
			// there is nothing to score.
			if n := len(c.members); n > 0 {
				a.NodeConfidence, nc = nc[:n:n], nc[n:]
				res.SVs, res.LVs = m.scoreMembers(c, a.NodeConfidence, res.SVs, res.LVs)
				acceptCredits(credits[cr:], res.SVs[sv:])
				res.NodesScored += n
			}
		default:
			a.FastPath = c.route == fastPath
			res.SVs = append(res.SVs, c.trusted...)
			res.LVs = append(res.LVs, c.rejected...)
		}
		a.Trusted, a.Rejected = span(res.SVs, sv), span(res.LVs, lv)
	}
	delta.entries = credits
	return res, delta
}

// presized returns an empty slice with capacity n, or nil when n is 0, so a
// result with nothing in it reads the same as one grown by append.
func presized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// span returns s[from:] capacity-limited, so appending to it never writes
// into s; nil when it is empty.
func span[T any](s []T, from int) []T {
	if from == len(s) {
		return nil
	}
	return s[from:len(s):len(s)]
}

// PreparedPoint is the history-independent half of AssessIsolated: the
// triple, whether it is scored at all, and the graph inputs the expert model
// judges its authority from. Like Prepared it is immutable once built.
type PreparedPoint struct {
	Triple *kg.Triple
	scored bool
	auth   llm.AuthorityContext
}

// AssessIsolated handles isolated points (single-claim keys): they cannot be
// cross-checked, so their confidence is authority-only, damped by the lack
// of corroboration. It is PreparePoint followed by FinishPoint.
func (m *MCC) AssessIsolated(sg *linegraph.SG, t *kg.Triple, opts Options) TrustedNode {
	return m.FinishPoint(m.PreparePoint(sg, t, opts))
}

// PreparePoint computes the history-independent half of AssessIsolated.
func (m *MCC) PreparePoint(sg *linegraph.SG, t *kg.Triple, opts Options) PreparedPoint {
	p := PreparedPoint{Triple: t, scored: !opts.Disabled() && !opts.DisableNodeLevel}
	if p.scored && m.cfg.Alpha > 0 {
		g := sg.Graph()
		p.auth = authorityContext(g, g.MaxDegree(), t)
	}
	return p
}

// FinishPoint evaluates AssessIsolated's history-dependent half: A(v) for a
// lone triple, with no peers to centre the expert's score against.
func (m *MCC) FinishPoint(p PreparedPoint) TrustedNode {
	t := p.Triple
	if !p.scored {
		return TrustedNode{Triple: t, Confidence: t.Weight}
	}
	var authLLM, authHist float64
	if m.cfg.Alpha > 0 {
		authLLM = Sigmoid(m.cfg.Beta, m.model.JudgeAuthority(p.auth))
	}
	if m.cfg.Alpha < 1 {
		authHist = m.hist.Historical(t.Source, []float64{t.Weight}, 1, 1-m.cfg.Alpha)
	}
	auth := m.cfg.Alpha*authLLM + (1-m.cfg.Alpha)*authHist
	return TrustedNode{Triple: t, Confidence: auth * t.Weight, Verified: true}
}

// scoreMembers runs Algorithm 1's Confidence_Computing over a node-scored
// candidate's members: C(v) = Sₙ(v) + A(v), filtered by θ, appending the
// survivors to svs and the rest to lvs. nc has one slot per member and
// receives C(v); until the centring it holds the expert's raw scores.
func (m *MCC) scoreMembers(c *preparedCand, nc []float64, svs []TrustedNode, lvs []*kg.Triple) ([]TrustedNode, []*kg.Triple) {
	// Raw expert scores, centred before the sigmoid (Eq. 10). Skipped
	// entirely when α = 0 (pure historical authority, Fig. 7's left end).
	var mean float64
	if m.cfg.Alpha > 0 {
		for i := range c.auth {
			nc[i] = m.model.JudgeAuthority(c.auth[i])
			mean += nc[i]
		}
		mean /= float64(len(nc))
	}
	sv, lv := len(svs), len(lvs)
	for i, t := range c.members {
		// A(v) = α·Auth_LLM + (1−α)·Auth_hist (Eq. 9), skipping whichever
		// component has zero weight (this is what makes α sweep query time,
		// Fig. 7).
		var authLLM, authHist float64
		if m.cfg.Alpha > 0 {
			authLLM = Sigmoid(m.cfg.Beta, nc[i]-mean)
		}
		if m.cfg.Alpha < 1 {
			authHist = m.hist.Historical(t.Source, []float64{t.Weight}, len(c.members), 1-m.cfg.Alpha)
		}
		av := m.cfg.Alpha*authLLM + (1-m.cfg.Alpha)*authHist
		cv := c.sn[i] + av
		nc[i] = cv
		if cv > m.cfg.NodeThreshold {
			svs = append(svs, TrustedNode{Triple: t, Confidence: cv, Verified: true})
		} else {
			lvs = append(lvs, t)
		}
	}
	// Robustness rule (§IV-C): a low-confidence subgraph must still yield an
	// answer candidate. If θ rejected every member, promote the nodes whose
	// extraction-weighted confidence C(v)·w sits within a small absolute gap
	// of the best — authority, source history and extraction strength break
	// ties that consistency alone cannot, while genuine multi-truth pairs
	// (near-equal scores) are all retained.
	const promoteGap = 0.02
	if len(svs) == sv {
		best := 0.0
		for i, t := range c.members {
			if sc := nc[i] * t.Weight; sc > best {
				best = sc
			}
		}
		// Every member was rejected, in member order: rebuild that span
		// without the promoted ones.
		lvs = lvs[:lv]
		for i, t := range c.members {
			if nc[i]*t.Weight >= best-promoteGap {
				svs = append(svs, TrustedNode{Triple: t, Confidence: nc[i], Verified: true})
			} else {
				lvs = append(lvs, t)
			}
		}
	}
	return svs, lvs
}

// authorityContext gathers the graph features the expert model judges t's
// authority from (§III-D.2b); every one is a function of the snapshot.
func authorityContext(g *kg.Graph, maxDeg int, t *kg.Triple) llm.AuthorityContext {
	return llm.AuthorityContext{
		Node:          t.Handle(),
		Source:        t.Source,
		Degree:        g.Degree(g.Subject(t)),
		MaxDegree:     maxDeg,
		LocalStrength: t.Weight,
		TypeWeight:    typeWeight(g, t),
		PathSupport:   g.TwoHopPathSupport(t),
	}
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
	acceptCredits(dst[base:], trusted)
	return dst
}

// acceptCredits counts each trusted node against its source's credit.
func acceptCredits(credits []histCredit, trusted []TrustedNode) {
	for _, tn := range trusted {
		if i, ok := creditIndex(credits, tn.Triple.Source); ok {
			credits[i].accepted++
		}
	}
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
	if e, ok := g.Entity(g.Subject(t)); ok && e.Type != "" && e.Type != "Entity" {
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
		return kg.CompareTripleIDs(sorted[i].Handle(), sorted[j].Handle()) < 0
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

func containsTriple(ts []*kg.Triple, t *kg.Triple) bool {
	for _, x := range ts {
		if x.Handle() == t.Handle() {
			return true
		}
	}
	return false
}
