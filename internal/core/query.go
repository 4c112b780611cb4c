package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"multirag/internal/confidence"
	"multirag/internal/fault"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
	"multirag/internal/par"
	"multirag/internal/retrieval"
	"multirag/internal/textutil"
)

// Answer is the result of one MKLGP query.
type Answer struct {
	Query     string
	LogicForm llm.LogicForm
	// Values is the final trustworthy answer set.
	Values []string
	// Trusted is the credible node set SVs that generated the answer.
	Trusted []confidence.TrustedNode
	// RejectedCount counts eliminated nodes (LVs).
	RejectedCount int
	// GraphConfidences lists C(G) per candidate subgraph.
	GraphConfidences []float64
	// Found reports whether any evidence was located.
	Found bool
	// Degraded marks a partial answer: the evaluation was cut short (deadline,
	// cancellation, an injected fault or a panic) and Values reflects only
	// the arms that completed. The serving layer decides per SLO class
	// whether a degraded answer is delivered or converted to an error.
	Degraded bool
	// DegradedReason names the first cause: "deadline", "canceled",
	// "panic: ..." or the stage error text.
	DegradedReason string
}

// evidence is the outcome of one (entity, relation) sub-question — the unit
// the executor schedules, merges and memoises. Multi-hop bridges and
// comparison arms each produce one evidence set; the executor merges them
// into the Answer in input order, so the result is independent of how the
// arms were scheduled. Immutability contract: consumers read the slices or
// append their elements elsewhere, never write through them — memo hits
// share every slice by reference (see cache.go).
type evidence struct {
	ev       []llm.Evidence
	trusted  []confidence.TrustedNode
	rejected int
	gcs      []float64
	// err records a sub-question cut short (context or injected fault).
	// Erroring evidence carries whatever was gathered before the cut and is
	// never memoised.
	err error
}

// arm pairs one sub-question's evidence with its deferred history credits.
type arm struct {
	e evidence
	d *confidence.HistoryDelta
	// vals is the arm's generated answer, filled only by intents that need
	// it before merging (comparison).
	vals []string
}

// absorb merges one evidence set's filtering diagnostics into the answer.
func (ans *Answer) absorb(e evidence) {
	ans.Trusted = append(ans.Trusted, e.trusted...)
	ans.RejectedCount += e.rejected
	ans.GraphConfidences = append(ans.GraphConfidences, e.gcs...)
}

// degrade marks the answer partial, keeping the first recorded reason.
func (ans *Answer) degrade(err error) {
	ans.Degraded = true
	if ans.DegradedReason == "" {
		ans.DegradedReason = degradeReason(err)
	}
}

// degradeReason classifies a cut-short cause into the stable vocabulary the
// serving metrics and the load harness count by.
func degradeReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case err == nil:
		return ""
	default:
		return err.Error()
	}
}

// Query executes MKLGP (Algorithm 2) for a natural-language query. It is
// safe for unbounded concurrent use: the whole evaluation runs against one
// immutable snapshot loaded up front, so in-flight ingestion never changes
// the view mid-query. Multi-hop bridge resolution and comparison arms fan
// out across the worker pool (Config.Workers); sub-question results merge in
// input order over deferred history credits, so the answer — values,
// trusted-node order and confidences — is bit-identical whatever the pool
// size. To bound a query by a deadline or cancellation, use QueryEach.
func (s *System) Query(q string) Answer {
	return s.query(context.Background(), s.snap.Load(), q)
}

// query is the one evaluation path behind every entry point. It honors ctx
// at every stage boundary (retrieval rows, fan-out arms, LLM calls): a query
// cut short returns whatever completed as a Degraded partial answer instead
// of an error. A panic anywhere in the DAG (an injected chaos fault, or a
// real bug under a real model API) is contained into a degraded answer
// instead of killing the caller.
func (s *System) query(ctx context.Context, sn *snapshot, q string) (ans Answer) {
	defer func() {
		if r := recover(); r != nil {
			ans = Answer{Query: q}
			ans.degrade(fmt.Errorf("panic: %v", r))
		}
	}()
	if err := ctx.Err(); err != nil {
		ans = Answer{Query: q}
		ans.degrade(err)
		return ans
	}
	return s.queryOn(ctx, sn, q)
}

func (s *System) queryOn(ctx context.Context, sn *snapshot, q string) Answer {
	lf := s.model.ParseQuery(q) // line 2: logic form generation
	ans := Answer{Query: q, LogicForm: lf}
	switch lf.Intent {
	case "multi_hop":
		s.answerMultiHop(ctx, sn, &ans)
	case "comparison":
		s.answerComparison(ctx, sn, &ans)
	default:
		if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
			s.answerLookup(ctx, sn, &ans, lf.Entities[0], lf.Relations[0])
		} else {
			s.answerFallback(ctx, sn, &ans, q)
		}
	}
	return ans
}

// generate is the answer-generation call every intent funnels through. It
// refuses to start for a caller whose context has ended and carries the
// fault.PointLLMGenerate injection point; the simulator itself never fails,
// so an error here is the caller's context or an injected fault, and the
// answer degrades with it.
func (s *System) generate(ctx context.Context, query string, ev []llm.Evidence) ([]string, error) {
	if err := modelCall(ctx, fault.PointLLMGenerate); err != nil {
		return nil, err
	}
	return s.model.GenerateAnswer(query, ev), nil
}

// extractChunk is the per-chunk extraction pair (entity mentions, then
// triples over them) of the chunk-fallback path. Each of the two model calls
// is guarded like generate's, at fault.PointLLMExtract.
func (s *System) extractChunk(ctx context.Context, text string) ([]llm.SPO, error) {
	if err := modelCall(ctx, fault.PointLLMExtract); err != nil {
		return nil, err
	}
	ms := s.model.ExtractEntities(text)
	if err := modelCall(ctx, fault.PointLLMExtract); err != nil {
		return nil, err
	}
	return s.model.ExtractTriples(text, ms), nil
}

// modelCall is the guard in front of one simulated model call: the caller's
// context must still be live, then the injection point fires.
func modelCall(ctx context.Context, point string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fault.Inject(ctx, point)
}

// subQuestion builds the canonical sub-question asked for (relation,
// entity), "What is the <relation, '_' read as ' '> of <entity>?", in one
// exactly sized allocation: hop and comparison fan-outs ask thousands.
func subQuestion(relation, entity string) string {
	const prefix, of = "What is the ", " of "
	var b strings.Builder
	b.Grow(len(prefix) + len(relation) + len(of) + len(entity) + 1)
	b.WriteString(prefix)
	for {
		i := strings.IndexByte(relation, '_')
		if i < 0 {
			break
		}
		b.WriteString(relation[:i])
		b.WriteByte(' ')
		relation = relation[i+1:]
	}
	b.WriteString(relation)
	b.WriteString(of)
	b.WriteString(entity)
	b.WriteByte('?')
	return b.String()
}

// answerLookup resolves a single (entity, attribute) question.
func (s *System) answerLookup(ctx context.Context, sn *snapshot, ans *Answer, entity, relation string) {
	e, d := s.gatherEvidence(ctx, sn, ans.Query, entity, relation)
	s.mcc.History().Apply(d)
	ans.absorb(e)
	if e.err != nil {
		ans.degrade(e.err)
		return
	}
	if len(e.ev) == 0 {
		return
	}
	vals, err := s.generate(ctx, ans.Query, e.ev) // line 7: trustworthy answers
	if err != nil {
		ans.degrade(err)
		return
	}
	ans.Found = true
	ans.Values = vals
}

// evScratch pools the hot-loop buffer of gatherEvidence — the MCC candidate
// list — so steady-state misses stop paying append-growth reallocations.
// The pooled array never outlives one gatherEvidence call, and a memo hit
// never takes it.
type evScratch struct {
	candidates []*linegraph.HomologousNode
}

var evScratchPool = sync.Pool{New: func() any { return new(evScratch) }}

// gatherEvidence is the retrieval heart shared by all intents: it returns
// weighted evidence for (entity, relation) along with the filtering
// diagnostics, plus the deferred history credits the caller must Apply once
// its (possibly parallel) phase joins. With MKA it is a homologous
// line-graph lookup plus MCC; w/o MKA it degrades to chunk retrieval with
// per-query LLM extraction. History is only read, never written, inside this
// function — that is what lets concurrent arms stay deterministic.
func (s *System) gatherEvidence(ctx context.Context, sn *snapshot, query, entity, relation string) (evidence, *confidence.HistoryDelta) {
	if err := fault.Inject(ctx, fault.PointEvidence); err != nil {
		return evidence{err: err}, nil
	}
	if s.cfg.DisableMKA || sn.sg == nil {
		return s.gatherByChunks(ctx, sn, query, entity, relation)
	}
	if ent, ok := s.evidence.get(sn.gen, entity, relation); ok {
		switch {
		case ent.group != nil:
			res, d := s.mcc.Finish(ent.group)
			return groupEvidence(res), d
		case ent.point != nil:
			return pointEvidence(s.mcc.FinishPoint(*ent.point)), nil
		}
		return ent.e, ent.d
	}
	if err := ctx.Err(); err != nil {
		return evidence{err: err}, nil
	}
	subj := kg.CanonicalID(s.model.Standardize(entity))
	sc := evScratchPool.Get().(*evScratch)
	defer evScratchPool.Put(sc)
	candidates := sc.candidates[:0]
	if n, ok := sn.sg.Lookup(subj, relation); ok {
		candidates = append(candidates, n)
	}
	// Nested attributes flatten to underscore-joined paths
	// (status → status_state); include them as alternative candidates. They
	// come from the subject's own triples — a posting of about a dozen
	// handles — never from a scan of every homologous node.
	candidates = append(candidates, sn.sg.NestedCandidates(subj, relation)...)
	sc.candidates = candidates
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Key < candidates[j].Key })

	if len(candidates) > 0 {
		prep := s.mcc.Prepare(sn.sg, candidates, s.cfg.Ablation)
		res, d := s.mcc.Finish(prep)
		e := groupEvidence(res)
		// Node-level scoring reads the evolving source history, so such a
		// group memoises only MCC's prepared half; everything else (fast
		// path, graph elimination, ablated pass-through) is a pure function
		// of the snapshot and is memoised whole.
		if res.NodesScored == 0 {
			s.evidence.put(sn.gen, entity, relation, evidenceEntry{e: e, d: d})
		} else {
			s.evidence.put(sn.gen, entity, relation, evidenceEntry{group: prep})
		}
		return e, d
	}
	// No homologous group: try the isolated points. Isolated authority reads
	// the history store, so only the prepared half is memoised.
	if t, ok := sn.sg.LookupIsolated(subj, relation); ok {
		pt := s.mcc.PreparePoint(sn.sg, t, s.cfg.Ablation)
		s.evidence.put(sn.gen, entity, relation, evidenceEntry{point: &pt})
		return pointEvidence(s.mcc.FinishPoint(pt)), nil
	}
	// Entity or attribute absent from the graph: degrade to chunk retrieval.
	return s.gatherByChunks(ctx, sn, query, entity, relation)
}

// groupEvidence builds the evidence of a homologous lookup from its MCC
// result: C(G) per candidate subgraph and the trusted nodes as weighted
// evidence.
func groupEvidence(res confidence.Result) evidence {
	e := evidence{gcs: make([]float64, 0, len(res.Assessments)), trusted: res.SVs, rejected: len(res.LVs)}
	for _, a := range res.Assessments {
		e.gcs = append(e.gcs, a.GraphConfidence)
	}
	e.ev = make([]llm.Evidence, 0, len(res.SVs))
	for _, tn := range res.SVs {
		e.ev = append(e.ev, llm.Evidence{Value: tn.Triple.Object, Weight: tn.Confidence, Source: tn.Triple.Source, Verified: tn.Verified})
	}
	return e
}

// pointEvidence is the evidence of an isolated point: its one claim.
func pointEvidence(tn confidence.TrustedNode) evidence {
	t := tn.Triple
	return evidence{
		ev:      []llm.Evidence{{Value: t.Object, Weight: tn.Confidence, Source: t.Source, Verified: tn.Verified}},
		trusted: []confidence.TrustedNode{tn},
	}
}

// retrievalK is how many chunks a fallback answer is generated from
// (matching Recall@5); the chunk path retrieves 4x as many to extract from.
const retrievalK = 5

// gatherByChunks is the non-aggregated retrieval path: top-k chunk search,
// per-query LLM extraction, then confidence filtering over an ad-hoc graph
// built from the extracted claims (the MCC stages still apply unless
// ablated). This is both slower (per-query LLM extraction) and lossier
// (top-k misses sparse evidence) than the line-graph path — the Table III
// "w/o MKA" behaviour.
func (s *System) gatherByChunks(ctx context.Context, sn *snapshot, query, entity, relation string) (evidence, *confidence.HistoryDelta) {
	hits, err := sn.index.SearchVectorCtx(ctx, s.embeds.get(query), 4*retrievalK, nil)
	if err != nil {
		return evidence{err: err}, nil
	}
	subj := kg.CanonicalID(s.model.Standardize(entity))
	// Per-query extraction over retrieved chunks.
	tmp := kg.New()
	tmp.AddEntity(s.model.Standardize(entity), "Entity", "")
	for _, h := range hits {
		spos, err := s.extractChunk(ctx, h.Chunk.Text)
		if err != nil {
			return evidence{err: err}, nil
		}
		for _, spo := range spos {
			if kg.CanonicalID(s.model.Standardize(spo.Subject)) != subj || spo.Predicate != relation {
				continue
			}
			tmp.AddTriple(kg.Fact{
				Subject:   subj,
				Predicate: relation,
				Object:    spo.Object,
				Source:    h.Chunk.Source,
				ChunkID:   h.Chunk.DocID,
				Weight:    spo.Confidence * (0.5 + 0.5*h.Score),
			})
		}
	}
	if tmp.NumTriples() == 0 {
		return evidence{}, nil
	}
	adhoc := linegraph.Build(tmp)
	if n, ok := adhoc.Lookup(subj, relation); ok {
		res, d := s.mcc.RunDeferred(adhoc, []*linegraph.HomologousNode{n}, s.cfg.Ablation)
		return groupEvidence(res), d
	}
	// Every extracted triple shares the (subject, relation) key, so no
	// homologous node means exactly one claim: an isolated point.
	t, _ := tmp.Triple(tmp.TripleIDs()[0])
	return pointEvidence(s.mcc.AssessIsolated(adhoc, t, s.cfg.Ablation)), nil
}

// answerMultiHop resolves bridge questions: entity —rel₁→ bridge —rel₂→ ans.
// Hop 2 resolves every bridge concurrently on the worker pool; the merge
// happens in bridge input order over deferred history credits, so the answer
// is bit-identical to a sequential evaluation. Under a cancelable context the
// fan-out stops claiming arms once the context ends, and whatever arms did
// complete merge into a Degraded partial answer — graceful degradation
// instead of an error.
func (s *System) answerMultiHop(ctx context.Context, sn *snapshot, ans *Answer) {
	lf := ans.LogicForm
	if len(lf.Entities) == 0 || len(lf.Relations) < 2 {
		s.answerFallback(ctx, sn, ans, ans.Query)
		return
	}
	entity, rel1, rel2 := lf.Entities[0], lf.Relations[0], lf.Relations[1]
	// Hop 1: find the bridge entity.
	hop1Q := subQuestion(rel1, entity)
	e1, d1 := s.gatherEvidence(ctx, sn, hop1Q, entity, rel1)
	s.mcc.History().Apply(d1)
	ans.absorb(e1)
	if e1.err != nil {
		ans.degrade(e1.err)
		return
	}
	if len(e1.ev) == 0 {
		return
	}
	bridges, err := s.generate(ctx, hop1Q, e1.ev)
	if err != nil {
		ans.degrade(err)
		return
	}
	// Hop 2: resolve the target attribute of each bridge (multi-truth
	// bridges merge their answers, in bridge order). Unclaimed arms (the
	// fan-out stopped early) have nil evidence and no deferred credits, so
	// merging skips them cleanly.
	arms := make([]arm, len(bridges))
	fanErr := par.ForEachCtx(ctx, s.Workers(), len(bridges), func(i int) {
		q := subQuestion(rel2, bridges[i])
		arms[i].e, arms[i].d = s.gatherEvidence(ctx, sn, q, bridges[i], rel2)
	})
	var ev2 []llm.Evidence
	for i := range arms {
		s.mcc.History().Apply(arms[i].d)
		ans.absorb(arms[i].e)
		ev2 = append(ev2, arms[i].e.ev...)
		if arms[i].e.err != nil {
			ans.degrade(arms[i].e.err)
		}
	}
	if fanErr != nil {
		ans.degrade(fanErr)
	}
	if len(ev2) == 0 {
		return
	}
	vals, err := s.generate(ctx, ans.Query, ev2)
	if err != nil {
		ans.degrade(err)
		return
	}
	ans.Found = true
	ans.Values = vals
}

// answerComparison resolves "do X and Y have the same attr?" questions. With
// more than one worker the two arms resolve concurrently (the second arm is
// speculative); with a single worker the second arm is skipped outright when
// the first resolves to nothing. Either way the second arm's evidence is
// merged only after the first resolved, so both modes produce the same
// answer.
func (s *System) answerComparison(ctx context.Context, sn *snapshot, ans *Answer) {
	lf := ans.LogicForm
	if len(lf.Entities) < 2 || len(lf.Relations) == 0 {
		s.answerFallback(ctx, sn, ans, ans.Query)
		return
	}
	rel := lf.Relations[0]
	resolve := func(entity string) arm {
		q := subQuestion(rel, entity)
		var a arm
		a.e, a.d = s.gatherEvidence(ctx, sn, q, entity, rel)
		if a.e.err == nil && len(a.e.ev) > 0 {
			var err error
			if a.vals, err = s.generate(ctx, q, a.e.ev); err != nil {
				a.e.err = err
			}
		}
		return a
	}
	var a0, a1 arm
	if s.Workers() > 1 {
		par.ForEach(2, 2, func(i int) {
			if i == 0 {
				a0 = resolve(lf.Entities[0])
			} else {
				a1 = resolve(lf.Entities[1])
			}
		})
	} else {
		a0 = resolve(lf.Entities[0])
		if a0.vals != nil {
			a1 = resolve(lf.Entities[1])
		}
	}
	s.mcc.History().Apply(a0.d)
	ans.absorb(a0.e)
	if a0.e.err != nil {
		ans.degrade(a0.e.err)
	}
	if a0.vals == nil {
		// First entity unresolvable: the second arm was skipped (sequential)
		// or is discarded unmerged (speculative) — identical output either
		// way.
		return
	}
	s.mcc.History().Apply(a1.d)
	ans.absorb(a1.e)
	if a1.e.err != nil {
		ans.degrade(a1.e.err)
	}
	if a1.vals == nil {
		return
	}
	ans.Found = true
	if shareValue(a0.vals, a1.vals) {
		ans.Values = []string{"yes"}
	} else {
		ans.Values = []string{"no"}
	}
}

// shareValue reports whether the two arms' answers have a value in common up
// to kg.CanonicalID. An arm answers one to three values, so the pairwise
// in-place comparison beats building a set of canonical IDs.
func shareValue(a, b []string) bool {
	for _, v := range a {
		for _, w := range b {
			if textutil.SameNormalized(v, w) {
				return true
			}
		}
	}
	return false
}

// answerFallback handles unparsed queries via pure chunk retrieval.
func (s *System) answerFallback(ctx context.Context, sn *snapshot, ans *Answer, q string) {
	hits, err := sn.index.SearchVectorCtx(ctx, s.embeds.get(q), retrievalK, nil)
	if err != nil {
		ans.degrade(err)
		return
	}
	if len(hits) == 0 {
		return
	}
	ev := make([]llm.Evidence, len(hits))
	for i, h := range hits {
		ev[i] = llm.Evidence{Value: h.Chunk.Text, Weight: h.Score, Source: h.Chunk.Source}
	}
	vals, err := s.generate(ctx, q, ev)
	if err != nil {
		ans.degrade(err)
		return
	}
	ans.Found = true
	ans.Values = vals
}

// RetrieveDocs returns the top-k document IDs for a query, ranked by the
// trusted-evidence pathway when available and by dense similarity otherwise.
// It backs the Recall@5 evaluation of Table IV.
func (s *System) RetrieveDocs(q string, k int) []string {
	_, docs := s.QueryWithDocs(q, k)
	return docs
}

// QueryWithDocs runs the query once and returns both the answer and the
// ranked supporting documents (avoiding the double evaluation RetrieveDocs
// would otherwise incur in benchmarks). Answer and document ranking are
// computed over the same snapshot, so the two are mutually consistent even
// under concurrent ingestion.
func (s *System) QueryWithDocs(q string, k int) (Answer, []string) {
	sn := s.snap.Load()
	ans := s.query(context.Background(), sn, q)
	var ranked []string
	seen := map[string]bool{}
	// Trusted triples first, in confidence order.
	tns := make([]confidence.TrustedNode, len(ans.Trusted))
	copy(tns, ans.Trusted)
	sort.SliceStable(tns, func(i, j int) bool { return tns[i].Confidence > tns[j].Confidence })
	for _, tn := range tns {
		doc := retrieval.DocOfChunk(tn.Triple.ChunkID)
		if doc != "" && !seen[doc] {
			seen[doc] = true
			ranked = append(ranked, doc)
		}
	}
	// Fill with dense hits: the bounded top-k scan reuses the cached query
	// embedding, so ranking costs no extra Embed beyond the answer's own.
	for _, h := range sn.index.SearchVector(s.embeds.get(q), k*2, nil) {
		doc := retrieval.DocOfChunk(h.Chunk.DocID)
		if doc != "" && !seen[doc] {
			seen[doc] = true
			ranked = append(ranked, doc)
		}
	}
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ans, ranked
}
