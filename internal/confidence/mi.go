// Package confidence implements MultiRAG's multi-level confidence computing
// (§III-D): mutual-information-entropy similarity between homologous nodes
// (Eq. 4–6), graph-level confidence (Eq. 7), node-level consistency,
// authority and historical scores (Eq. 8–11), and the MCC algorithm
// (Algorithm 1) that filters untrustworthy subgraphs and nodes before their
// content reaches the LLM context.
package confidence

import (
	"math"

	"multirag/internal/textutil"
)

// similarity computes S(vi, vj) — the normalised mutual-information-entropy
// similarity between two attribute-value sets (Eq. 4 and Eq. 5), given as
// their token profiles; the per-candidate matrix of MCC goes through it.
//
// Construction of the joint distribution p(x, y): the paper defines I(vi,vj)
// over the joint distribution of the two nodes' attribute-value tokens but
// leaves the estimator open. We use the maximal-overlap coupling, the joint
// with marginals p_i and p_j that concentrates as much mass as possible on
// the diagonal:
//
//	p(t, t)  += min(p_i(t), p_j(t))                      (shared content)
//	p(x, y)  += r_i(x)·r_j(y)/R  for the residual mass    (independent rest)
//
// where r_i = p_i − min(p_i, p_j) and R = Σ r_i = Σ r_j. This is a valid
// joint distribution; identical value sets give I = H (maximal dependence)
// and disjoint value sets give the independent product (I = 0), exactly the
// behaviour Eq. 4 is meant to capture.
//
// Normalisation: the paper states S ∈ [0,1] but writes S = I/(H_i+H_j),
// which caps at 1/2 for identical distributions. We use the standard NMI
// S = 2I/(H_i+H_j) so the stated codomain is exact (DESIGN.md §6, "MCC
// similarity structure").
func similarity(pi, pj textutil.Dist) float64 {
	if len(pi.Tokens) == 0 || len(pj.Tokens) == 0 {
		return 0
	}
	if pi.H+pj.H == 0 {
		// Both are point masses: similarity is identity of the single token.
		if sameSupport(pi, pj) {
			return 1
		}
		return 0
	}
	s := 2 * MutualInformation(pi, pj) / (pi.H + pj.H)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// MutualInformation computes I(vi, vj) (Eq. 4) under the maximal-overlap
// coupling described at similarity. Terms are summed in token order —
// diagonal first, then the residual product with pi's tokens outermost — so
// the result is bit-stable.
func MutualInformation(pi, pj textutil.Dist) float64 {
	// Residual masses r = p − min(p_i, p_j): ri for pi's tokens, then rj.
	var stack [32]float64
	res := stack[:0]
	if n := len(pi.P) + len(pj.P); n > len(stack) {
		res = make([]float64, 0, n)
	}
	res = append(append(res, pi.P...), pj.P...)
	ri, rj := res[:len(pi.P)], res[len(pi.P):]

	// Diagonal terms p(t,t) log(p(t,t) / (p_i(t) p_j(t))): a merge join over
	// the two sorted supports.
	var overlap, info float64
	for a, b := 0, 0; a < len(pi.Tokens) && b < len(pj.Tokens); {
		switch {
		case pi.Tokens[a] < pj.Tokens[b]:
			a++
		case pi.Tokens[a] > pj.Tokens[b]:
			b++
		default:
			p, q := pi.P[a], pj.P[b]
			m := math.Min(p, q)
			overlap += m
			info += m * math.Log(m/(p*q))
			ri[a] -= m
			rj[b] -= m
			a++
			b++
		}
	}
	residual := 1 - overlap
	if residual <= 1e-12 {
		return info
	}
	// Off-diagonal terms: p(x,y) = r_i(x) r_j(y) / R.
	for x, rx := range ri {
		if rx <= 0 {
			continue
		}
		for y, ry := range rj {
			if ry <= 0 {
				continue
			}
			pxy := rx * ry / residual
			if pxy > 0 {
				info += pxy * math.Log(pxy/(pi.P[x]*pj.P[y]))
			}
		}
	}
	return info
}

func sameSupport(a, b textutil.Dist) bool {
	if len(a.Tokens) != len(b.Tokens) {
		return false
	}
	for i, t := range a.Tokens {
		if b.Tokens[i] != t {
			return false
		}
	}
	return true
}

// simMatrix is the similarity structure of one homologous subgraph: S is
// evaluated once per unordered pair of distinct member values, and C(G) and
// every Sₙ(v) are read off the matrix by index. The zero simMatrix stands for
// a subgraph with fewer than two members, which has nothing to compare.
type simMatrix struct {
	row []int     // row[i] is the matrix row of member i's value
	k   int       // distinct values
	s   []float64 // k×k, symmetric, row-major
}

// distinctValue is one distinct member value of a subgraph: its token profile
// and whether more than one member carries it (only then is S(v,v) needed).
type distinctValue struct {
	dist   textutil.Dist
	shared bool
}

// newSimMatrix evaluates S over vals; row maps each member to its value.
func newSimMatrix(row []int, vals []distinctValue) simMatrix {
	k := len(vals)
	s := make([]float64, k*k)
	for a := range vals {
		if vals[a].shared {
			s[a*k+a] = similarity(vals[a].dist, vals[a].dist)
		}
		for b := a + 1; b < k; b++ {
			v := similarity(vals[a].dist, vals[b].dist)
			s[a*k+b], s[b*k+a] = v, v
		}
	}
	return simMatrix{row: row, k: k, s: s}
}

// at returns S(vᵢ, vⱼ) for members i and j.
func (m simMatrix) at(i, j int) float64 { return m.s[m.row[i]*m.k+m.row[j]] }

// graphConfidence computes C(G) (Eq. 7): the mean similarity over all ordered
// pairs of distinct members, accumulated i-major, j-minor. A subgraph with
// fewer than two members has, by convention, confidence 1 (nothing disagrees
// with anything).
func (m simMatrix) graphConfidence() float64 {
	n := len(m.row)
	if n < 2 {
		return 1
	}
	var total float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				total += m.at(i, j)
			}
		}
	}
	return total / float64(n*n-n)
}

// nodeConsistency computes Sₙ(v) (Eq. 8) for member i: its mean similarity
// to the other members, accumulated in member order. With no peers the score
// is 0 (no corroboration).
func (m simMatrix) nodeConsistency(i int) float64 {
	n := len(m.row)
	if n < 2 {
		return 0
	}
	var total float64
	for j := 0; j < n; j++ {
		if j != i {
			total += m.at(i, j)
		}
	}
	return total / float64(n-1)
}
