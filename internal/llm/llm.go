// Package llm is the language model the MultiRAG pipeline is built against:
// Sim, a deterministic simulated LLM.
//
// The paper runs Llama3-8B-Instruct (and GPT-3.5-Turbo for the CoT baseline)
// for five narrow sub-tasks: query logic-form generation, entity recognition,
// SPO triple extraction, entity standardisation / authority judging, and
// final answer synthesis. This repository is offline and stdlib-only, so Sim
// replaces the hosted model with deterministic text processing plus a seeded
// hallucination model. The substitution preserves the property the paper's
// experiments measure: when the prompt context contains conflicting evidence,
// the generator's chance of emitting a wrong ("hallucinated") answer rises
// sharply; when the context has been filtered to consistent evidence, it
// answers faithfully. See DESIGN.md §1.
package llm

import (
	"sync"
	"time"
)

// Mention is an entity mention recognised in text.
type Mention struct {
	Name string // surface form
	Type string // coarse type guess ("Entity" when unknown)
}

// SPO is a subject–predicate–object triple extracted from text.
type SPO struct {
	Subject   string
	Predicate string
	Object    string
	// Confidence is the extractor's own score in [0,1] for the triple.
	Confidence float64
}

// LogicForm is the structured reading of a user query produced by the
// logic-form generation step of MKLGP (Alg. 2, line 2).
type LogicForm struct {
	Intent    string   // "attribute_lookup", "multi_hop", "unknown"
	Entities  []string // entity surface forms mentioned by the query
	Relations []string // requested attributes / relations
}

// Evidence is one unit of retrieved context handed to answer synthesis:
// a candidate value with its aggregation weight and originating source.
// Verified marks evidence that passed multi-level confidence filtering and
// therefore reaches the context as an annotated, trustworthy statement; the
// simulated model does not treat verified statements as conflict triggers.
type Evidence struct {
	Value    string
	Weight   float64
	Source   string
	Verified bool
}

// AuthorityContext carries the graph-derived features the expert LLM uses to
// judge a node's authority C_LLM(v): association strength between entities,
// entity-type information and multi-step path information (§III-D.2b).
type AuthorityContext struct {
	Node          int32   // handle of the judged triple; the seeded coin hashes its kg ID
	Source        string  // originating data source name (world-knowledge prior)
	Degree        int     // global influence: node degree in the KG
	MaxDegree     int     // normaliser: max degree observed in the KG
	LocalStrength float64 // mean edge weight to neighbours, in [0,1]
	TypeWeight    float64 // entity-type prior, in [0,1]
	PathSupport   float64 // fraction of 2-hop paths that corroborate the node
}

// Usage accumulates token and call accounting for the virtual-time model.
type Usage struct {
	Calls            int
	PromptTokens     int
	CompletionTokens int
}

// Add merges o into u.
func (u *Usage) Add(o Usage) {
	u.Calls += o.Calls
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
}

// CostModel prices simulated LLM traffic. The defaults approximate a locally
// served 8B model: tens of milliseconds of fixed overhead per call plus a
// per-token generation cost.
type CostModel struct {
	PerCall   time.Duration
	PerPrompt time.Duration // per prompt token
	PerOutput time.Duration // per completion token
}

// DefaultCostModel is used when a Config leaves Cost zeroed.
var DefaultCostModel = CostModel{
	PerCall:   40 * time.Millisecond,
	PerPrompt: 120 * time.Microsecond,
	PerOutput: 2 * time.Millisecond,
}

// Latency prices a usage snapshot.
func (c CostModel) Latency(u Usage) time.Duration {
	return time.Duration(u.Calls)*c.PerCall +
		time.Duration(u.PromptTokens)*c.PerPrompt +
		time.Duration(u.CompletionTokens)*c.PerOutput
}

// usageBox is the concurrency-safe accounting shared by Sim methods.
type usageBox struct {
	mu sync.Mutex
	u  Usage
}

func (b *usageBox) record(prompt, completion int) {
	b.mu.Lock()
	b.u.Calls++
	b.u.PromptTokens += prompt
	b.u.CompletionTokens += completion
	b.mu.Unlock()
}

func (b *usageBox) add(u Usage) {
	b.mu.Lock()
	b.u.Add(u)
	b.mu.Unlock()
}

func (b *usageBox) snapshot() Usage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.u
}

func (b *usageBox) reset() {
	b.mu.Lock()
	b.u = Usage{}
	b.mu.Unlock()
}
