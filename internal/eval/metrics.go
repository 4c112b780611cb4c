// Package eval provides the evaluation machinery: precision/recall/F1 over
// answer value sets (Eq. 12), Recall@K for supporting-document retrieval, the
// virtual-time clock that prices simulated LLM traffic, and plain-text
// renderers for the benchmark tables and figure series.
package eval

import (
	"multirag/internal/textutil"
)

// normSet canonicalises a value set for matching: lower-cased,
// punctuation-free, deduplicated.
func normSet(values []string) map[string]bool {
	out := map[string]bool{}
	for _, v := range values {
		n := textutil.NormalizeValue(v)
		if n != "" {
			out[n] = true
		}
	}
	return out
}

// PRF1 computes precision, recall and F1 (Eq. 12) between a predicted value
// set and the gold value set, using normalised exact matching. Empty
// prediction against non-empty gold scores 0; empty against empty scores 1.
func PRF1(pred, gold []string) (p, r, f1 float64) {
	ps := normSet(pred)
	gs := normSet(gold)
	if len(ps) == 0 && len(gs) == 0 {
		return 1, 1, 1
	}
	if len(ps) == 0 || len(gs) == 0 {
		return 0, 0, 0
	}
	hits := 0
	for v := range ps {
		if gs[v] {
			hits++
		}
	}
	p = float64(hits) / float64(len(ps))
	r = float64(hits) / float64(len(gs))
	if p+r == 0 {
		return p, r, 0
	}
	f1 = 2 * p * r / (p + r)
	return p, r, f1
}

// RecallAtK computes the fraction of gold items found within the first k
// elements of ranked.
func RecallAtK(ranked, gold []string, k int) float64 {
	if len(gold) == 0 {
		return 1
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	gs := map[string]bool{}
	for _, g := range gold {
		gs[g] = true
	}
	hits := 0
	for _, r := range ranked[:k] {
		if gs[r] {
			hits++
			delete(gs, r) // count each gold item once
		}
	}
	return float64(hits) / float64(len(gold))
}

// Mean accumulates a running mean.
type Mean struct {
	n    int
	mean float64
}

// Add folds a sample in.
func (m *Mean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// N returns the sample count.
func (m *Mean) N() int { return m.n }

// Value returns the mean (0 with no samples).
func (m *Mean) Value() float64 { return m.mean }
