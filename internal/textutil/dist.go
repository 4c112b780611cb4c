package textutil

import (
	"math"
	"sort"
)

// Dist is an empirical probability distribution over tokens, stored as the
// sorted support with its probabilities alongside. Every sum over a Dist runs
// in token order, so information-theoretic quantities derived from one are
// bit-stable from call to call.
type Dist struct {
	// Tokens is the support: distinct tokens in ascending order.
	Tokens []string
	// P[i] is the probability of Tokens[i]; the masses sum to 1.
	P []float64
	// H is the Shannon entropy −Σ p log p in nats (Eq. 6 of the paper).
	H float64
}

// NewDist builds the term-frequency distribution of toks. It takes ownership
// of toks: the slice is sorted and compacted in place and becomes the
// distribution's support. No tokens give the zero Dist.
func NewDist(toks []string) Dist {
	if len(toks) == 0 {
		return Dist{}
	}
	sort.Strings(toks)
	total := float64(len(toks))
	p := make([]float64, 0, len(toks))
	k := 0
	for i := 0; i < len(toks); {
		j := i + 1
		for j < len(toks) && toks[j] == toks[i] {
			j++
		}
		toks[k] = toks[i]
		p = append(p, float64(j-i)/total)
		k++
		i = j
	}
	d := Dist{Tokens: toks[:k], P: p}
	for _, q := range p {
		d.H -= q * math.Log(q)
	}
	return d
}
