package textutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCosineTokens(t *testing.T) {
	if got := CosineTokens([]string{"a", "b"}, []string{"a", "b"}); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical cosine = %v", got)
	}
	if got := CosineTokens([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint cosine = %v", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		// Affix-trimming edges: shared prefix, shared suffix, containment.
		{"prefix-x-suffix", "prefix-y-suffix", 1},
		{"abcdef", "abcxdef", 1},
		{"abc", "abcabc", 3},
		{"aaaa", "aa", 2},
		// Non-ASCII: rune semantics, not byte semantics.
		{"café", "cafe", 1},
		{"日本語", "日本", 1},
		{"héllo wörld", "héllo wörld", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

// levenshteinRef is the seed implementation (plain two-row rune DP, no
// trimming, no ASCII path) kept as the property-test oracle for the
// optimised version.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// TestLevenshteinMatchesReference: the trimmed/ASCII-fast-path version must
// agree with the seed DP on arbitrary strings (quick generates both ASCII
// and multi-byte inputs).
func TestLevenshteinMatchesReference(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == levenshteinRef(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Force high-affix-overlap pairs, which quick's uniform strings rarely
	// produce.
	g := func(mid1, mid2, affix string) bool {
		a := affix + mid1 + affix
		b := affix + mid2 + affix
		return Levenshtein(a, b) == levenshteinRef(a, b)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestLevenshteinASCIIAllocFree: the ASCII fast path on short strings must
// not allocate (no []rune conversions, stack DP row).
func TestLevenshteinASCIIAllocFree(t *testing.T) {
	a, b := "the delayed departure", "the delayde departure"
	if avg := testing.AllocsPerRun(100, func() { Levenshtein(a, b) }); avg != 0 {
		t.Errorf("ASCII Levenshtein allocated %.1f times per run, want 0", avg)
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	f := func(a, b string) bool {
		ta, tb := Tokenize(a), Tokenize(b)
		return math.Abs(CosineTokens(ta, tb)-CosineTokens(tb, ta)) < 1e-12 &&
			Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSqrtAgainstMath(t *testing.T) {
	for _, x := range []float64{0, 1e-9, 0.5, 1, 2, 100, 12345.678} {
		if got, want := sqrt(x), math.Sqrt(x); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("sqrt(%v)=%v want %v", x, got, want)
		}
	}
}

var levSink int

// BenchmarkLevenshtein times the value-similarity kernel MCC compares group
// members with: two short ASCII values one edit apart, two ~90-byte ones
// that differ at both ends (so trimming leaves a row past the stack buffer),
// and a pair that takes the rune path.
func BenchmarkLevenshtein(b *testing.B) {
	long := "The departure gate of Flight CA981 is B12 according to the airport feed of Beijing Capital"
	for _, c := range []struct{ name, a, b string }{
		{"short", "Michael Mann", "Michael Man"},
		{"long", long, "t" + long[1:40] + "C" + long[41:] + "x"},
		{"runes", "İstanbul Havalimanı", "Istanbul Havalimani"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				levSink = Levenshtein(c.a, c.b)
			}
		})
	}
}
