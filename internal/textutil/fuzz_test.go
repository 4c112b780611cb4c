package textutil

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// FuzzSameNormalized pins SameNormalized(a, b) == (NormalizeValue(a) ==
// NormalizeValue(b)), and reflexivity, over arbitrary byte strings, with
// CompareNormalized and SameLower beside it (checkStreamedPair). The seeds
// are the case-mapping and segmentation corners: invalid UTF-8, runes whose
// lower-case form is ASCII or changes byte length (İ, the Kelvin sign), a
// final sigma, fullwidth digits, and strings with no token at all.
func FuzzSameNormalized(f *testing.F) {
	for _, p := range [][2]string{
		{"On Time", "on-time"},
		{"  VALUE 3!", "value-3"},
		{"value 3", "value 30"},
		{"x\xffy", "x y"},
		{"\xc3(", "("},
		{"İstanbul", "istanbul"},
		{"\u212aelvin", "kelvin"},
		{"ΟΔΟΣ", "οδος"},
		{"οδος", "οδοσ"},
		{"４２", "42"},
		{"４２", "４２"},
		{"---", "!?"},
		{"", " . "},
		{"a", ""},
		{"ab", "a b"},
	} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := SameNormalized(a, b), NormalizeValue(a) == NormalizeValue(b); got != want {
			t.Fatalf("SameNormalized(%q, %q) = %v; normal forms %q, %q", a, b, got, NormalizeValue(a), NormalizeValue(b))
		}
		if !SameNormalized(a, a) || !SameNormalized(b, b) {
			t.Fatalf("SameNormalized is not reflexive on %q / %q", a, b)
		}
		checkStreamedPair(t, a, b)
	})
}

// FuzzNormalForms holds Tokenize, NormalizeValue, StandardizeName and
// NormalizeRelation to the tokenise-filter-join oracles they replaced, pins
// that a normal form is its own fixed point and is returned without a copy,
// holds AppendNormalizeValue to NormalizeValue, and holds the streamed forms — HashAddNormalized to HashAdd of the normal
// form, HashAddLower to HashAdd of strings.ToLower, EachContentToken to
// TokenizeContent, CompareNormalized to strings.Compare of two — to the
// strings they stand for (checkNormalForms). The
// seeds are the case-mapping corners FuzzSameNormalized uses, names made only
// of entity noise, and a ~1 KB chunk text.
func FuzzNormalForms(f *testing.F) {
	for _, s := range []string{
		"", "x\xffy", "\xc3(", "İstanbul", "\u212aelvin", "STOC\u212a", "ΟΔΟΣ", "οδος", "４２",
		"The Inc", "the", "Flight CA981", "flight ca981", "michael mann", "  The  MATRIX! ",
		strings.Repeat("The status of Flight CA981 is Delayed, according to AirChina Official API. ", 14),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkNormalForms(t, s) })
}

// FuzzHash64 pins the inline FNV-1a loop to hash/fnv, and SeededHash01 — with
// its key cut anywhere into two parts — to Hash01 of the fmt-built string it
// replaces, bit for bit.
func FuzzHash64(f *testing.F) {
	f.Add("", uint64(0), uint8(0))
	f.Add("auth|t000001", uint64(1), uint8(5))
	f.Add("x\xffy", uint64(math.MaxUint64), uint8(200))
	f.Add("gen|What is the status of CA981?|delayed", uint64(42), uint8(4))
	f.Fuzz(func(t *testing.T, s string, seed uint64, cut uint8) {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := Hash64(s), h.Sum64(); got != want {
			t.Fatalf("Hash64(%q) = %#x, hash/fnv %#x", s, got, want)
		}
		k := int(cut) % (len(s) + 1)
		want := math.Float64bits(Hash01(fmt.Sprintf("%d|%s", seed, s)))
		if got := math.Float64bits(SeededHash01(seed, s)); got != want {
			t.Fatalf("SeededHash01(%d, %q) bits %#x, want %#x", seed, s, got, want)
		}
		if got := math.Float64bits(SeededHash01(seed, s[:k], s[k:])); got != want {
			t.Fatalf("SeededHash01(%d, %q, %q) bits %#x, want %#x", seed, s[:k], s[k:], got, want)
		}
	})
}
