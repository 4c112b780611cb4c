package confidence

import (
	"math"
	"testing"
	"testing/quick"

	"multirag/internal/textutil"
)

// Similarity computes S(vi, vj) over two attribute-value sets: similarity
// over their pooled token profiles.
func Similarity(valuesI, valuesJ []string) float64 {
	return similarity(valueDist(valuesI), valueDist(valuesJ))
}

// Entropy exposes H(V) (Eq. 6) for a value set.
func Entropy(values []string) float64 {
	return valueDist(values).H
}

// valueDist builds the token profile of an attribute-value set: the pooled
// tokens of every value.
func valueDist(values []string) textutil.Dist {
	var toks []string
	for _, v := range values {
		toks = append(toks, textutil.Tokenize(v)...)
	}
	return textutil.NewDist(toks)
}

// GraphConfidence computes C(G) (Eq. 7): the mean pairwise similarity over
// all ordered pairs of distinct nodes in a homologous line graph, given each
// node's attribute-value set. A graph with fewer than two nodes has, by
// convention, confidence 1 (nothing disagrees with anything).
func GraphConfidence(nodeValues [][]string) float64 {
	if len(nodeValues) < 2 {
		return 1
	}
	row := make([]int, len(nodeValues))
	vals := make([]distinctValue, len(nodeValues))
	for i, v := range nodeValues {
		row[i] = i
		vals[i].dist = valueDist(v)
	}
	return newSimMatrix(row, vals).graphConfidence()
}

// NodeConsistency computes Sₙ(v) (Eq. 8): the mean similarity of v's value
// set to those of the other nodes carrying the same attribute. With no
// peers the score is 0 (no corroboration).
func NodeConsistency(values []string, peers [][]string) float64 {
	if len(peers) == 0 {
		return 0
	}
	v := valueDist(values)
	var total float64
	for _, p := range peers {
		total += similarity(v, valueDist(p))
	}
	return total / float64(len(peers))
}

func TestSimilarityIdentical(t *testing.T) {
	s := Similarity([]string{"Michael Mann"}, []string{"michael mann"})
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("identical value sets: S = %v, want 1", s)
	}
}

func TestSimilarityDisjoint(t *testing.T) {
	s := Similarity([]string{"Michael Mann"}, []string{"Christopher Nolan"})
	if s > 1e-9 {
		t.Fatalf("disjoint value sets: S = %v, want 0", s)
	}
}

func TestSimilarityPartialBetween(t *testing.T) {
	s := Similarity([]string{"2024-10-01 14:30"}, []string{"2024-10-01 16:45"})
	if s <= 0 || s >= 1 {
		t.Fatalf("partial overlap must give S strictly between 0 and 1, got %v", s)
	}
}

func TestSimilarityMonotoneInOverlap(t *testing.T) {
	none := Similarity([]string{"a b c d"}, []string{"w x y z"})
	one := Similarity([]string{"a b c d"}, []string{"a x y z"})
	three := Similarity([]string{"a b c d"}, []string{"a b c z"})
	if !(none < one && one < three) {
		t.Fatalf("similarity not monotone in token overlap: %v %v %v", none, one, three)
	}
}

func TestSimilarityPointMasses(t *testing.T) {
	if s := Similarity([]string{"delayed"}, []string{"delayed"}); s != 1 {
		t.Fatalf("equal point masses: %v", s)
	}
	if s := Similarity([]string{"delayed"}, []string{"ontime"}); s != 0 {
		t.Fatalf("distinct point masses: %v", s)
	}
}

func TestSimilarityEmpty(t *testing.T) {
	if s := Similarity(nil, []string{"x"}); s != 0 {
		t.Fatalf("empty vs non-empty: %v", s)
	}
}

func TestSimilarityBoundsAndSymmetryProperty(t *testing.T) {
	f := func(a, b []string) bool {
		s1 := Similarity(a, b)
		s2 := Similarity(b, a)
		return s1 >= 0 && s1 <= 1 && math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutualInformationNonNegativeProperty(t *testing.T) {
	f := func(a, b []string) bool {
		pa := textutil.NewDist(a)
		pb := textutil.NewDist(b)
		if len(pa.Tokens) == 0 || len(pb.Tokens) == 0 {
			return true
		}
		return MutualInformation(pa, pb) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMutualInformationSelfEqualsEntropy(t *testing.T) {
	p := textutil.NewDist([]string{"a", "a", "b", "c"})
	i := MutualInformation(p, p)
	h := p.H
	if math.Abs(i-h) > 1e-9 {
		t.Fatalf("I(X;X) = %v, H(X) = %v; must be equal under maximal coupling", i, h)
	}
}

func TestEntropyMatchesDist(t *testing.T) {
	if h := Entropy([]string{"a b", "a c"}); math.Abs(h-textutil.NewDist([]string{"a", "b", "a", "c"}).H) > 1e-12 {
		t.Fatalf("Entropy = %v", h)
	}
}

func TestGraphConfidenceConsensusVsConflict(t *testing.T) {
	consensus := GraphConfidence([][]string{{"Delayed"}, {"Delayed"}, {"Delayed"}})
	conflicted := GraphConfidence([][]string{{"Delayed"}, {"On time"}, {"Cancelled"}})
	if consensus < 0.99 {
		t.Fatalf("full consensus C(G) = %v, want ≈1", consensus)
	}
	if conflicted > 0.2 {
		t.Fatalf("full conflict C(G) = %v, want ≈0", conflicted)
	}
	mixed := GraphConfidence([][]string{{"Delayed"}, {"Delayed"}, {"On time"}})
	if !(conflicted < mixed && mixed < consensus) {
		t.Fatalf("C(G) not ordered by agreement: %v %v %v", conflicted, mixed, consensus)
	}
}

func TestGraphConfidenceSmallGraphs(t *testing.T) {
	if GraphConfidence(nil) != 1 || GraphConfidence([][]string{{"x"}}) != 1 {
		t.Fatal("graphs with <2 nodes have confidence 1 by convention")
	}
}

func TestGraphConfidenceBoundsProperty(t *testing.T) {
	f := func(vals []string) bool {
		var sets [][]string
		for _, v := range vals {
			sets = append(sets, []string{v})
		}
		c := GraphConfidence(sets)
		return c >= 0 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeConsistency(t *testing.T) {
	peers := [][]string{{"Delayed"}, {"Delayed"}, {"On time"}}
	agree := NodeConsistency([]string{"Delayed"}, peers)
	dissent := NodeConsistency([]string{"Cancelled"}, peers)
	if agree <= dissent {
		t.Fatalf("agreeing node must be more consistent: %v vs %v", agree, dissent)
	}
	if NodeConsistency([]string{"x"}, nil) != 0 {
		t.Fatal("no peers ⇒ consistency 0")
	}
}

// TestSimilarityBitStable pins the package rule that no result depends on map
// iteration order: over non-uniform values of seven and more tokens, 5,000
// evaluations of each quantity yield exactly one bit pattern.
func TestSimilarityBitStable(t *testing.T) {
	a := []string{"delayed delayed delayed by typhoon warning at gate gate b12"}
	b := []string{"delayed by by crew shortage at gate b12 b12 until 16 45"}
	c := []string{"on time time departure from gate a3 a3 a3 at 14 30"}
	for name, eval := range map[string]func() float64{
		"Entropy":         func() float64 { return Entropy(a) },
		"Similarity":      func() float64 { return Similarity(a, b) },
		"GraphConfidence": func() float64 { return GraphConfidence([][]string{a, b, c, a}) },
	} {
		first := math.Float64bits(eval())
		for i := 1; i < 5000; i++ {
			if got := math.Float64bits(eval()); got != first {
				t.Fatalf("%s: evaluation %d returned bits %#x, first returned %#x", name, i, got, first)
			}
		}
	}
}
