// Package baselines implements every comparison method of §IV-A(d) over the
// same corpus substrate MultiRAG uses (knowledge graph + chunk index +
// simulated LLM):
//
//   - data-fusion baselines: TruthFinder [37], LTM [42]
//   - SOTA retrieval baselines: IR-CoT [44], MDQA [46], ChatKBQA [45],
//     FusionQuery [34], Standard RAG [2], GPT-3.5+CoT [43], RQ-RAG [47],
//     MetaRAG [9]
//
// A method implements the contract of each table that runs it: FusionMethod
// (Table II, Figures 5 and 6), QAMethod (Table IV), or both for the methods
// both tables compare (IR-CoT, MDQA, ChatKBQA). None of them performs
// multi-level confidence filtering — that is MultiRAG's contribution — so
// conflicting evidence reaches their LLM context unfiltered and the simulated
// model's conflict-sensitive hallucination applies.
package baselines

import (
	"sort"
	"strings"

	"multirag/internal/kg"
	"multirag/internal/llm"
	"multirag/internal/retrieval"
)

// Env is the shared substrate a method runs against. Fetches counts the
// source records a method touched; the harness prices each fetch on the
// virtual clock (deep-web record access — the dominant cost of batch fusion
// per the FusionQuery comparison protocol [34]).
type Env struct {
	Graph   *kg.Graph
	Index   *retrieval.Index
	Model   *llm.Sim
	Fetches int
}

// CountFetch charges n source-record accesses.
func (e *Env) CountFetch(n int) { e.Fetches += n }

// FusionMethod is the fusion-query contract of Table II and Figures 5 and 6.
type FusionMethod interface {
	// Name returns the method's display name, matching the paper's tables.
	Name() string
	// Setup binds the environment and performs any batch precomputation.
	Setup(env *Env)
	// AnswerFusion resolves a fusion query: the value(s) of attribute for
	// entity.
	AnswerFusion(queryText, entity, attribute string) []string
}

// QAMethod is the multi-hop QA contract of Table IV.
type QAMethod interface {
	// Name returns the method's display name, matching the paper's tables.
	Name() string
	// Setup binds the environment and performs any batch precomputation.
	Setup(env *Env)
	// AnswerQA resolves a multi-hop question, returning the answer values
	// and the top-k retrieved document IDs for Recall@K.
	AnswerQA(question string, k int) (answer []string, docs []string)
}

// --- shared helpers ---

// graphEvidence returns the unfiltered claims for (entity, attribute) from
// the knowledge graph.
func graphEvidence(env *Env, entity, attribute string) []llm.Evidence {
	var ev []llm.Evidence
	for _, t := range env.Graph.TriplesByKey(kg.CanonicalID(entity), attribute) {
		ev = append(ev, llm.Evidence{Value: t.Object, Weight: t.Weight, Source: t.Source})
	}
	env.CountFetch(len(ev))
	return ev
}

// chunkEvidence retrieves top-k chunks for the query, extracts triples with
// the LLM and keeps those matching (entity, attribute). No filtering.
func chunkEvidence(env *Env, query, entity, attribute string, k int) []llm.Evidence {
	subj := kg.CanonicalID(entity)
	var ev []llm.Evidence
	for _, h := range env.Index.Search(query, k) {
		mentions := env.Model.ExtractEntities(h.Chunk.Text)
		for _, spo := range env.Model.ExtractTriples(h.Chunk.Text, mentions) {
			if kg.CanonicalID(spo.Subject) == subj && spo.Predicate == attribute {
				ev = append(ev, llm.Evidence{Value: spo.Object, Weight: spo.Confidence, Source: h.Chunk.Source})
			}
		}
	}
	return ev
}

// denseDocs returns the top-k distinct document IDs by dense similarity.
func denseDocs(env *Env, query string, k int) []string {
	var out []string
	seen := map[string]bool{}
	for _, h := range env.Index.Search(query, k*3) {
		d := retrieval.DocOfChunk(h.Chunk.DocID)
		if d != "" && !seen[d] {
			seen[d] = true
			out = append(out, d)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// mergeDocs concatenates ranked doc lists, deduplicating, capped at k.
func mergeDocs(k int, lists ...[]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, list := range lists {
		for _, d := range list {
			if d != "" && !seen[d] {
				seen[d] = true
				out = append(out, d)
				if len(out) == k {
					return out
				}
			}
		}
	}
	return out
}

// hopQuery renders a single-hop question.
func hopQuery(relation, entity string) string {
	return "What is the " + strings.ReplaceAll(relation, "_", " ") + " of " + entity + "?"
}

// majorityValue returns the most supported value of an evidence set ("" when
// empty), with deterministic tie-breaking.
func majorityValue(ev []llm.Evidence) string {
	weights := map[string]float64{}
	repr := map[string]string{}
	for _, e := range ev {
		key := kg.CanonicalID(e.Value)
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		weights[key] += w
		if _, ok := repr[key]; !ok {
			repr[key] = e.Value
		}
	}
	keys := make([]string, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if weights[keys[i]] != weights[keys[j]] {
			return weights[keys[i]] > weights[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) == 0 {
		return ""
	}
	return repr[keys[0]]
}

// comparisonAnswer reduces two value sets to yes/no.
func comparisonAnswer(v1, v2 []string) []string {
	set := map[string]bool{}
	for _, v := range v1 {
		set[kg.CanonicalID(v)] = true
	}
	for _, v := range v2 {
		if set[kg.CanonicalID(v)] {
			return []string{"yes"}
		}
	}
	return []string{"no"}
}
