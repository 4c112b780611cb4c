package baselines

import (
	"fmt"

	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
	"multirag/internal/textutil"
)

// ragBase carries the environment for the LLM-pipeline baselines.
type ragBase struct{ env *Env }

// Setup implements the shared binding.
func (b *ragBase) Setup(env *Env) { b.env = env }

// --- Standard RAG [2] ---

// StandardRAG performs single-shot dense retrieval with the whole question
// and answers from whatever the top chunks contain — no hop decomposition,
// no filtering. Multi-hop questions usually retrieve only one of the two
// supporting documents, which is why its Table IV numbers are lowest.
type StandardRAG struct{ ragBase }

// NewStandardRAG constructs the baseline.
func NewStandardRAG() *StandardRAG { return &StandardRAG{} }

// Name implements Method.
func (*StandardRAG) Name() string { return "Standard RAG" }

// AnswerFusion implements Method.
func (s *StandardRAG) AnswerFusion(queryText, entity, attribute string) []string {
	ev := chunkEvidence(s.env, queryText, entity, attribute, 5)
	return s.env.Model.GenerateAnswer(queryText, ev)
}

// AnswerQA implements Method: one retrieval round with the whole question,
// then in-context chaining over whatever the top chunks contain. When the
// second-hop document was not retrieved — the common multi-hop failure — the
// model answers from unrelated attribute mentions and hallucinates.
func (s *StandardRAG) AnswerQA(question string, k int) ([]string, []string) {
	lf := s.env.Model.ParseQuery(question)
	docs := denseDocs(s.env, question, k)
	target := ""
	if len(lf.Relations) > 0 {
		target = lf.Relations[len(lf.Relations)-1]
	}
	// Extract every triple in the retrieved context.
	var all []llm.SPO
	var sources []string
	for _, h := range s.env.Index.Search(question, 5) {
		mentions := s.env.Model.ExtractEntities(h.Chunk.Text)
		for _, spo := range s.env.Model.ExtractTriples(h.Chunk.Text, mentions) {
			all = append(all, spo)
			sources = append(sources, h.Chunk.Source)
		}
	}
	var ev []llm.Evidence
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		// In-context chaining: find the bridge in the retrieved triples,
		// then the bridge's attribute in the same context.
		subj := kg.CanonicalID(lf.Entities[0])
		bridges := map[string]bool{}
		for _, spo := range all {
			if kg.CanonicalID(spo.Subject) == subj && spo.Predicate == lf.Relations[0] {
				bridges[kg.CanonicalID(spo.Object)] = true
			}
		}
		for i, spo := range all {
			if spo.Predicate == lf.Relations[1] && bridges[kg.CanonicalID(spo.Subject)] {
				ev = append(ev, llm.Evidence{Value: spo.Object, Weight: spo.Confidence, Source: sources[i]})
			}
		}
		// Desperate fallback: any mention of the target attribute.
		if len(ev) == 0 {
			for i, spo := range all {
				if spo.Predicate == lf.Relations[1] {
					ev = append(ev, llm.Evidence{Value: spo.Object, Weight: 0.4 * spo.Confidence, Source: sources[i]})
				}
			}
		}
	} else {
		for i, spo := range all {
			if target == "" || spo.Predicate == target {
				ev = append(ev, llm.Evidence{Value: spo.Object, Weight: spo.Confidence, Source: sources[i]})
			}
		}
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 {
		v1 := chunkEvidence(s.env, hopQuery(target, lf.Entities[0]), lf.Entities[0], target, 3)
		v2 := chunkEvidence(s.env, hopQuery(target, lf.Entities[1]), lf.Entities[1], target, 3)
		if len(v1) == 0 || len(v2) == 0 {
			return nil, docs
		}
		return comparisonAnswer(
			s.env.Model.GenerateAnswer(question+" [1]", v1),
			s.env.Model.GenerateAnswer(question+" [2]", v2)), docs
	}
	if len(ev) == 0 {
		return nil, docs
	}
	return s.env.Model.GenerateAnswer(question, ev), docs
}

// --- GPT-3.5-Turbo + CoT [43] ---

// CoT reasons step by step from the model's parametric knowledge with only a
// shallow peek at the corpus (simulating what a strong closed-book model
// recalls): roughly half the corpus-specific facts are simply not in its
// memory, in which case it reasons itself into a fabricated value. Its
// document ranking is plain dense similarity — it performs no iterative
// retrieval.
type CoT struct{ ragBase }

// recallMiss deterministically decides whether the closed-book model has no
// memory of the fact behind the question.
func (c *CoT) recallMiss(question string) bool {
	return textutil.Hash01("cot-memory|"+question) < 0.45
}

// NewCoT constructs the baseline.
func NewCoT() *CoT { return &CoT{} }

// Name implements Method.
func (*CoT) Name() string { return "GPT-3.5-Turbo+CoT" }

// AnswerFusion implements Method.
func (c *CoT) AnswerFusion(queryText, entity, attribute string) []string {
	// Closed-book: only two chunks of "remembered" context.
	ev := chunkEvidence(c.env, queryText, entity, attribute, 2)
	return c.env.Model.GenerateAnswer("cot|"+queryText, ev)
}

// AnswerQA implements Method: step-by-step decomposition over parametric
// memory; no retrieval loop, so the document ranking stays dense-only.
func (c *CoT) AnswerQA(question string, k int) ([]string, []string) {
	lf := c.env.Model.ParseQuery(question)
	docs := denseDocs(c.env, question, k)
	if c.recallMiss(question) {
		// The fact is not in memory: the chain of thought converges on a
		// plausible fabrication.
		fabricated := "plausible guess " + question
		if len(lf.Entities) > 0 {
			fabricated = lf.Entities[0] + " fact " + fmt.Sprint(textutil.Hash64(question)%97)
		}
		return []string{fabricated}, docs
	}
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		h1 := hopQuery(lf.Relations[0], lf.Entities[0])
		ev1 := chunkEvidence(c.env, h1, lf.Entities[0], lf.Relations[0], 2)
		bridges := c.env.Model.GenerateAnswer("cot|"+h1, ev1)
		if len(bridges) == 0 {
			return nil, docs
		}
		h2 := hopQuery(lf.Relations[1], bridges[0])
		ev2 := chunkEvidence(c.env, h2, bridges[0], lf.Relations[1], 2)
		if len(ev2) == 0 {
			return nil, docs
		}
		return c.env.Model.GenerateAnswer("cot|"+question, ev2), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := chunkEvidence(c.env, hopQuery(rel, lf.Entities[0]), lf.Entities[0], rel, 2)
		v2 := chunkEvidence(c.env, hopQuery(rel, lf.Entities[1]), lf.Entities[1], rel, 2)
		if len(v1) == 0 || len(v2) == 0 {
			return nil, docs
		}
		return comparisonAnswer(
			c.env.Model.GenerateAnswer("cot|"+question+" [1]", v1),
			c.env.Model.GenerateAnswer("cot|"+question+" [2]", v2)), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		ev := chunkEvidence(c.env, question, lf.Entities[0], lf.Relations[0], 2)
		return c.env.Model.GenerateAnswer("cot|"+question, ev), docs
	}
	return nil, docs
}

// --- IR-CoT [44] ---

// IRCoT interleaves retrieval with chain-of-thought: each reasoning step
// issues its own retrieval, so multi-hop recall is good; nothing filters
// conflicting evidence.
type IRCoT struct{ ragBase }

// NewIRCoT constructs the baseline.
func NewIRCoT() *IRCoT { return &IRCoT{} }

// Name implements Method.
func (*IRCoT) Name() string { return "IRCoT" }

// AnswerFusion implements Method.
func (i *IRCoT) AnswerFusion(queryText, entity, attribute string) []string {
	// Two retrieval rounds: the question itself, then a refinement with the
	// attribute spelled out.
	ev := chunkEvidence(i.env, queryText, entity, attribute, 5)
	ev = append(ev, chunkEvidence(i.env, hopQuery(attribute, entity), entity, attribute, 5)...)
	return i.env.Model.GenerateAnswer(queryText, ev)
}

// AnswerQA implements Method.
func (i *IRCoT) AnswerQA(question string, k int) ([]string, []string) {
	lf := i.env.Model.ParseQuery(question)
	docs := denseDocs(i.env, question, k)
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		h1 := hopQuery(lf.Relations[0], lf.Entities[0])
		ev1 := chunkEvidence(i.env, h1, lf.Entities[0], lf.Relations[0], 5)
		bridges := i.env.Model.GenerateAnswer(h1, ev1)
		if len(bridges) == 0 {
			return nil, docs
		}
		h2 := hopQuery(lf.Relations[1], bridges[0])
		ev2 := chunkEvidence(i.env, h2, bridges[0], lf.Relations[1], 5)
		docs = mergeDocs(k, denseDocs(i.env, h1, 2), denseDocs(i.env, h2, 2), docs)
		if len(ev2) == 0 {
			return nil, docs
		}
		return i.env.Model.GenerateAnswer(question, ev2), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := chunkEvidence(i.env, hopQuery(rel, lf.Entities[0]), lf.Entities[0], rel, 5)
		v2 := chunkEvidence(i.env, hopQuery(rel, lf.Entities[1]), lf.Entities[1], rel, 5)
		docs = mergeDocs(k, denseDocs(i.env, hopQuery(rel, lf.Entities[0]), 2),
			denseDocs(i.env, hopQuery(rel, lf.Entities[1]), 2), docs)
		if len(v1) == 0 || len(v2) == 0 {
			return nil, docs
		}
		return comparisonAnswer(
			i.env.Model.GenerateAnswer(question+" [1]", v1),
			i.env.Model.GenerateAnswer(question+" [2]", v2)), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		return i.AnswerFusion(question, lf.Entities[0], lf.Relations[0]), docs
	}
	return nil, docs
}

// --- ChatKBQA [45] ---

// ChatKBQA generates a logic form and retrieves directly from the knowledge
// graph — excellent recall, but every conflicting graph claim lands in the
// context unweighted, which is why Fig. 5 shows it degrading steeply under
// consistency perturbation.
type ChatKBQA struct{ ragBase }

// NewChatKBQA constructs the baseline.
func NewChatKBQA() *ChatKBQA { return &ChatKBQA{} }

// Name implements Method.
func (*ChatKBQA) Name() string { return "ChatKBQA" }

// AnswerFusion implements Method.
func (c *ChatKBQA) AnswerFusion(queryText, entity, attribute string) []string {
	ev := graphEvidence(c.env, entity, attribute)
	if len(ev) == 0 {
		return nil
	}
	return c.env.Model.GenerateAnswer(queryText, ev)
}

// AnswerQA implements Method.
func (c *ChatKBQA) AnswerQA(question string, k int) ([]string, []string) {
	lf := c.env.Model.ParseQuery(question)
	docs := denseDocs(c.env, question, k)
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		bridges := c.AnswerFusion(question, lf.Entities[0], lf.Relations[0])
		if len(bridges) == 0 {
			return nil, docs
		}
		docs = mergeDocs(k, graphDocs(c.env, bridges[0], lf.Relations[1]),
			graphDocs(c.env, lf.Entities[0], lf.Relations[0]), docs)
		return c.AnswerFusion(question, bridges[0], lf.Relations[1]), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := c.AnswerFusion(question+" [1]", lf.Entities[0], rel)
		v2 := c.AnswerFusion(question+" [2]", lf.Entities[1], rel)
		if v1 == nil || v2 == nil {
			return nil, docs
		}
		return comparisonAnswer(v1, v2), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		return c.AnswerFusion(question, lf.Entities[0], lf.Relations[0]), docs
	}
	return nil, docs
}

// graphDocs lists the provenance documents behind a graph key.
func graphDocs(env *Env, entity, attribute string) []string {
	var out []string
	for _, t := range env.Graph.TriplesByKey(kg.CanonicalID(entity), attribute) {
		if d := retrieval.DocOfChunk(t.ChunkID); d != "" {
			out = append(out, d)
		}
	}
	return out
}

// --- MDQA [46] ---

// MDQA builds a per-query knowledge subgraph from retrieved documents (KG
// prompting) and answers over it; wider retrieval than Standard RAG, still
// no confidence weighting.
type MDQA struct{ ragBase }

// NewMDQA constructs the baseline.
func NewMDQA() *MDQA { return &MDQA{} }

// Name implements Method.
func (*MDQA) Name() string { return "MDQA" }

// AnswerFusion implements Method.
func (m *MDQA) AnswerFusion(queryText, entity, attribute string) []string {
	ev := chunkEvidence(m.env, queryText, entity, attribute, 8)
	if len(ev) == 0 {
		ev = graphEvidence(m.env, entity, attribute)
	}
	if len(ev) == 0 {
		return nil
	}
	return m.env.Model.GenerateAnswer(queryText, ev)
}

// AnswerQA implements Method.
func (m *MDQA) AnswerQA(question string, k int) ([]string, []string) {
	lf := m.env.Model.ParseQuery(question)
	docs := denseDocs(m.env, question, k)
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		bridges := m.AnswerFusion(question, lf.Entities[0], lf.Relations[0])
		if len(bridges) == 0 {
			return nil, docs
		}
		h2 := hopQuery(lf.Relations[1], bridges[0])
		docs = mergeDocs(k, denseDocs(m.env, h2, 2), docs)
		return m.AnswerFusion(question, bridges[0], lf.Relations[1]), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := m.AnswerFusion(question+" [1]", lf.Entities[0], rel)
		v2 := m.AnswerFusion(question+" [2]", lf.Entities[1], rel)
		if v1 == nil || v2 == nil {
			return nil, docs
		}
		return comparisonAnswer(v1, v2), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		return m.AnswerFusion(question, lf.Entities[0], lf.Relations[0]), docs
	}
	return nil, docs
}

// --- RQ-RAG [47] ---

// RQRAG refines the query into sub-queries and merges their retrievals,
// improving coverage over Standard RAG without any trust model.
type RQRAG struct{ ragBase }

// NewRQRAG constructs the baseline.
func NewRQRAG() *RQRAG { return &RQRAG{} }

// Name implements Method.
func (*RQRAG) Name() string { return "RQ-RAG" }

// AnswerFusion implements Method.
func (r *RQRAG) AnswerFusion(queryText, entity, attribute string) []string {
	ev := chunkEvidence(r.env, queryText, entity, attribute, 4)
	ev = append(ev, chunkEvidence(r.env, entity+" "+attribute, entity, attribute, 4)...)
	ev = append(ev, chunkEvidence(r.env, hopQuery(attribute, entity), entity, attribute, 4)...)
	if len(ev) == 0 {
		return nil
	}
	return r.env.Model.GenerateAnswer(queryText, ev)
}

// AnswerQA implements Method.
func (r *RQRAG) AnswerQA(question string, k int) ([]string, []string) {
	lf := r.env.Model.ParseQuery(question)
	docs := denseDocs(r.env, question, k)
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		h1 := hopQuery(lf.Relations[0], lf.Entities[0])
		bridges := r.env.Model.GenerateAnswer(h1, chunkEvidence(r.env, h1, lf.Entities[0], lf.Relations[0], 4))
		if len(bridges) == 0 {
			return nil, docs
		}
		h2 := hopQuery(lf.Relations[1], bridges[0])
		docs = mergeDocs(k, denseDocs(r.env, h1, 2), denseDocs(r.env, h2, 2), docs)
		ev := chunkEvidence(r.env, h2, bridges[0], lf.Relations[1], 4)
		ev = append(ev, chunkEvidence(r.env, bridges[0]+" "+lf.Relations[1], bridges[0], lf.Relations[1], 4)...)
		if len(ev) == 0 {
			return nil, docs
		}
		return r.env.Model.GenerateAnswer(question, ev), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := r.AnswerFusion(question+" [1]", lf.Entities[0], rel)
		v2 := r.AnswerFusion(question+" [2]", lf.Entities[1], rel)
		if v1 == nil || v2 == nil {
			return nil, docs
		}
		return comparisonAnswer(v1, v2), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		return r.AnswerFusion(question, lf.Entities[0], lf.Relations[0]), docs
	}
	return nil, docs
}

// --- MetaRAG [9] ---

// MetaRAG adds a metacognitive check: after answering, it verifies the
// answer against the majority of the evidence and regenerates from the
// agreeing subset when it detects divergence — a partial, answer-level
// defence against conflict (MultiRAG filters at the knowledge level instead).
type MetaRAG struct{ ragBase }

// NewMetaRAG constructs the baseline.
func NewMetaRAG() *MetaRAG { return &MetaRAG{} }

// Name implements Method.
func (*MetaRAG) Name() string { return "MetaRAG" }

func (m *MetaRAG) generateChecked(question string, ev []llm.Evidence) []string {
	if len(ev) == 0 {
		return nil
	}
	ans := m.env.Model.GenerateAnswer(question, ev)
	if len(ans) == 0 {
		return ans
	}
	// Metacognitive verification: does the answer agree with the weighted
	// majority? If not, retry once on the majority subset.
	major := majorityValue(ev)
	if major == "" || kg.CanonicalID(ans[0]) == kg.CanonicalID(major) {
		return ans
	}
	var agree []llm.Evidence
	for _, e := range ev {
		if kg.CanonicalID(e.Value) == kg.CanonicalID(major) {
			agree = append(agree, e)
		}
	}
	return m.env.Model.GenerateAnswer("retry|"+question, agree)
}

// AnswerFusion implements Method.
func (m *MetaRAG) AnswerFusion(queryText, entity, attribute string) []string {
	ev := chunkEvidence(m.env, queryText, entity, attribute, 6)
	if len(ev) == 0 {
		ev = graphEvidence(m.env, entity, attribute)
	}
	return m.generateChecked(queryText, ev)
}

// AnswerQA implements Method.
func (m *MetaRAG) AnswerQA(question string, k int) ([]string, []string) {
	lf := m.env.Model.ParseQuery(question)
	docs := denseDocs(m.env, question, k)
	if lf.Intent == "multi_hop" && len(lf.Relations) >= 2 && len(lf.Entities) > 0 {
		h1 := hopQuery(lf.Relations[0], lf.Entities[0])
		bridges := m.generateChecked(h1, chunkEvidence(m.env, h1, lf.Entities[0], lf.Relations[0], 5))
		if len(bridges) == 0 {
			return nil, docs
		}
		h2 := hopQuery(lf.Relations[1], bridges[0])
		docs = mergeDocs(k, denseDocs(m.env, h1, 2), denseDocs(m.env, h2, 2), docs)
		return m.generateChecked(question, chunkEvidence(m.env, h2, bridges[0], lf.Relations[1], 5)), docs
	}
	if lf.Intent == "comparison" && len(lf.Entities) >= 2 && len(lf.Relations) > 0 {
		rel := lf.Relations[0]
		v1 := m.generateChecked(question+" [1]", chunkEvidence(m.env, hopQuery(rel, lf.Entities[0]), lf.Entities[0], rel, 5))
		v2 := m.generateChecked(question+" [2]", chunkEvidence(m.env, hopQuery(rel, lf.Entities[1]), lf.Entities[1], rel, 5))
		if v1 == nil || v2 == nil {
			return nil, docs
		}
		return comparisonAnswer(v1, v2), docs
	}
	if len(lf.Entities) > 0 && len(lf.Relations) > 0 {
		return m.AnswerFusion(question, lf.Entities[0], lf.Relations[0]), docs
	}
	return nil, docs
}

var _ = []Method{
	(*StandardRAG)(nil), (*CoT)(nil), (*IRCoT)(nil), (*ChatKBQA)(nil),
	(*MDQA)(nil), (*RQRAG)(nil), (*MetaRAG)(nil),
}
