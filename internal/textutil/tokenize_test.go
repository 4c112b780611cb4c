package textutil

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

var tokenizeCases = []struct {
	in   string
	want []string
}{
	{"", nil},
	{"Hello, World!", []string{"hello", "world"}},
	{"CA981 PEK->JFK", []string{"ca981", "pek", "jfk"}},
	{"  multiple   spaces ", []string{"multiple", "spaces"}},
	{"a1b2", []string{"a1b2"}},
	{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
	{"2024-10-01 14:30", []string{"2024", "10", "01", "14", "30"}},
	{"---", nil},
}

func TestTokenize(t *testing.T) {
	for _, c := range tokenizeCases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCountTokensMatchesTokenize pins CountTokens(s) == len(Tokenize(s)),
// taking Tokenize from its oracle since Tokenize now sizes itself by
// CountTokens: over the Tokenize table, over hand-picked case-mapping
// oddities (runes whose lower-case form changes byte length, script or
// category, and invalid UTF-8), and over seeded random strings drawn from an
// alphabet of those runes mixed with ASCII.
func TestCountTokensMatchesTokenize(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := CountTokens(s), len(oracleTokenize(s)); got != want {
			t.Fatalf("CountTokens(%q) = %d, len(Tokenize) = %d (%q)", s, got, want, oracleTokenize(s))
		}
	}
	for _, c := range tokenizeCases {
		check(c.in)
	}
	odd := []string{
		"İstanbul İİ", "Iıİi", "ǅ ǈ ǋ", "K\u212a", "Å\u212b", "ẞ straße", "Σίσυφος ΣΣ",
		"Ⓐⓐ Ⅷ ⅷ", "٣٤ ३४ ４２", "a\u0307b", "x\xffy", "\xc3(", "\xe2\x82", "日本語 テキスト",
		"e\u0301 é", "𝔘𝔫𝔦 𐐀𐐨", "a\u200bb", "\u1e9e\u0130\u0131",
	}
	for _, s := range odd {
		check(s)
	}
	// Every code point between two letters: one token if it joins them, two
	// if it separates — the whole rune-level rule, exhaustively.
	for r := rune(0); r <= utf8.MaxRune; r++ {
		check("a" + string(r) + "a")
	}
	alphabet := []rune("aZ09 -_.,İıẞßΣςǅǈK\u212a\u212bⒶⅧ٣４\u0307\u0301\u200b日𐐀𝔘\ufffd")
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		b := make([]byte, 0, 48)
		for n := rng.Intn(16); n > 0; n-- {
			switch rng.Intn(8) {
			case 0: // any code point, surrogates and out-of-range included
				b = utf8.AppendRune(b, rune(rng.Intn(0x120000)))
			case 1: // a raw byte, usually breaking the encoding
				b = append(b, byte(rng.Intn(256)))
			default:
				b = utf8.AppendRune(b, alphabet[rng.Intn(len(alphabet))])
			}
		}
		check(string(b))
	}
}

// TokenizeContent is EachContentToken's oracle: Tokenize followed by
// stopword removal. If removal would leave nothing (e.g. the value is "The
// A"), the unfiltered tokens are returned so that callers never receive an
// empty slice for non-empty input.
func TokenizeContent(s string) []string {
	toks := Tokenize(s)
	kept := toks[:0:0]
	for _, t := range toks {
		if !stopwords[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		return toks
	}
	return kept
}

func TestTokenizeContentDropsStopwords(t *testing.T) {
	got := TokenizeContent("The Lord of the Rings")
	want := []string{"lord", "rings"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeContent = %v, want %v", got, want)
	}
}

func TestTokenizeContentFallsBackWhenAllStopwords(t *testing.T) {
	got := TokenizeContent("the of and")
	want := []string{"the", "of", "and"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TokenizeContent all-stopword = %v, want %v", got, want)
	}
}

func TestNormalizeValue(t *testing.T) {
	if NormalizeValue("  The Matrix ") != NormalizeValue("the matrix") {
		t.Fatal("normalisation must be case/space insensitive")
	}
	if NormalizeValue("A.B.C") != "a b c" {
		t.Fatalf("got %q", NormalizeValue("A.B.C"))
	}
}

// oracleTokenize is Tokenize as it was before CountTokens sized its slice:
// lower-case the whole string, then cut the tokens out of the copy, with the
// segmentation rule spelled out rather than taken from isTokenRune.
func oracleTokenize(s string) []string {
	var toks []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, lower[start:])
	}
	return toks
}

// oracleNormalizeValue and oracleStandardizeName are the normal forms built
// the way they were before the single-pass builder: tokenise, filter, join.
func oracleNormalizeValue(s string) string { return strings.Join(oracleTokenize(s), " ") }

func oracleStandardizeName(s string) string {
	toks := oracleTokenize(s)
	var kept []string
	for _, t := range toks {
		if !entityNoise[t] {
			kept = append(kept, t)
		}
	}
	if len(kept) == 0 {
		kept = toks
	}
	return strings.Join(kept, " ")
}

// checkNormalForms holds Tokenize, NormalizeValue and StandardizeName to
// their oracles on s, and pins the no-copy path: a normal form equal to its
// input is the input itself, so normalising a normal form never allocates.
func checkNormalForms(t *testing.T, s string) {
	t.Helper()
	if got, want := Tokenize(s), oracleTokenize(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, oracle %q", s, got, want)
	}
	for _, f := range []struct {
		name          string
		build, build0 func(string) string
	}{
		{"NormalizeValue", NormalizeValue, oracleNormalizeValue},
		{"StandardizeName", StandardizeName, oracleStandardizeName},
		{"NormalizeRelation", NormalizeRelation, func(s string) string { return strings.Join(oracleTokenize(s), "_") }},
	} {
		got := f.build(s)
		if want := f.build0(s); got != want {
			t.Fatalf("%s(%q) = %q, oracle %q", f.name, s, got, want)
		}
		if got == s && got != "" && unsafe.StringData(got) != unsafe.StringData(s) {
			t.Fatalf("%s(%q) copied an input already in normal form", f.name, s)
		}
		if again := f.build(got); again != got || (got != "" && unsafe.StringData(again) != unsafe.StringData(got)) {
			t.Fatalf("%s(%q) = %q is not a fixed point (%q)", f.name, s, got, again)
		}
	}
	norm := oracleNormalizeValue(s)
	if got := AppendNormalizeValue([]byte("x"), s); string(got) != "x"+norm {
		t.Fatalf("AppendNormalizeValue(%q, %q) = %q, oracle %q", "x", s, got, "x"+norm)
	}
	if got, want := HashAddNormalized(fnvOffset64, s), Hash64(norm); got != want {
		t.Fatalf("HashAddNormalized(%q) = %#x, Hash64 of %q %#x", s, got, norm, want)
	}
	for _, o := range []string{s, s[:len(s)/2], norm, strings.ToUpper(s), s + " x", "", "a", "delayed", "\u212a"} {
		checkStreamedPair(t, s, o)
	}
	if got, want := HashAddLower(fnvOffset64, s), Hash64(strings.ToLower(s)); got != want {
		t.Fatalf("HashAddLower(%q) = %#x, Hash64 of %q %#x", s, got, strings.ToLower(s), want)
	}
	var content []string
	EachContentToken(s, func(tok string) { content = append(content, strings.ToLower(tok)) })
	if want := TokenizeContent(s); !slices.Equal(content, want) {
		t.Fatalf("EachContentToken(%q) passed %q, TokenizeContent %q", s, content, want)
	}
}

// checkStreamedPair holds the streamed comparisons of a and b to the strings
// they stand for: CompareNormalized to strings.Compare of the normal forms,
// SameNormalized to their equality, SameLower to strings.ToLower equality.
func checkStreamedPair(t *testing.T, a, b string) {
	t.Helper()
	na, nb := oracleNormalizeValue(a), oracleNormalizeValue(b)
	if got, want := CompareNormalized(a, b), strings.Compare(na, nb); got != want {
		t.Fatalf("CompareNormalized(%q, %q) = %d; normal forms %q, %q compare %d", a, b, got, na, nb, want)
	}
	if got, want := SameNormalized(a, b), na == nb; got != want {
		t.Fatalf("SameNormalized(%q, %q) = %v; normal forms %q, %q", a, b, got, na, nb)
	}
	if got, want := SameLower(a, b), strings.ToLower(a) == strings.ToLower(b); got != want {
		t.Fatalf("SameLower(%q, %q) = %v, want %v", a, b, got, want)
	}
}

// TestNormalFormsMatchOracles runs checkNormalForms over the Tokenize table,
// the case-mapping oddities, entity-noise corners and seeded random strings.
func TestNormalFormsMatchOracles(t *testing.T) {
	for _, c := range tokenizeCases {
		checkNormalForms(t, c.in)
	}
	for _, s := range []string{
		"İstanbul İİ", "K\u212a", "Σίσυφος ΣΣ", "ΟΔΟΣ", "٣٤ ३४ ４２", "x\xffy", "\xc3(", "a\u0307b",
		"The Inc", "the", "flight ca981", "Flight CA981", "STOC\u212a acme", "İnc x", "ca981 ltd",
		"ca981", "michael mann", "michael  mann", " michael mann", "michael mann ", "michael\tmann",
		"café", "Ⱥ", "Ⱥ b", "tickers", "ticker", "flights inc",
		"the of and", "The Lord of the Rings", "THE", "tHe İt", "ıt is", "\u212a of", "as is\xffby",
	} {
		checkNormalForms(t, s)
	}
	alphabet := []rune("aZ09 -_.,İıẞßΣςǅK\u212aⱥȺ٣４\u0307日\ufffd")
	words := []string{"the ", "The ", "inc", "flight ", "co.", "x", " ", "  "}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i++ {
		b := make([]byte, 0, 48)
		for n := rng.Intn(12); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				b = append(b, byte(rng.Intn(256)))
			case 1, 2:
				b = append(b, words[rng.Intn(len(words))]...)
			default:
				b = utf8.AppendRune(b, alphabet[rng.Intn(len(alphabet))])
			}
		}
		checkNormalForms(t, string(b))
	}
}

// TestContainsLowerMatchesToLower holds ContainsLower(s, w) to
// strings.Contains(strings.ToLower(s), w) over the source-prior keywords and
// seeded strings that mix case, runes lower-casing onto ASCII (the Kelvin
// sign, İ) and invalid bytes, and pins that it never allocates.
func TestContainsLowerMatchesToLower(t *testing.T) {
	words := []string{"", "forum", "user", "api", "wiki", "gov", "i", "k"}
	alphabet := []rune("aAfFoOrRuUmMsSeEpPiIwWkKgGvV -_.İ\u212aİé\ufffd")
	rng := rand.New(rand.NewSource(5))
	inputs := []string{"", "ForumUser123", "AirChina Official API", "mov-csv-2", "WI\u212aI", "İ", "x\xffapi", "Ap"}
	for i := 0; i < 3000; i++ {
		b := make([]byte, 0, 32)
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(10) == 0 {
				b = append(b, byte(0x80+rng.Intn(128)))
				continue
			}
			b = utf8.AppendRune(b, alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		for _, w := range words {
			if got, want := ContainsLower(s, w), strings.Contains(strings.ToLower(s), w); got != want {
				t.Fatalf("ContainsLower(%q, %q) = %v, want %v", s, w, got, want)
			}
		}
	}
	if a := testing.AllocsPerRun(50, func() { ContainsLower("AirChina Official API", "scraper") }); a != 0 {
		t.Fatalf("ContainsLower: %.0f allocs, want 0", a)
	}
}

// TestNoiseWordsFitScratch: isNoise compares tokens through a maxNoiseLen
// buffer, so every noise word must fit it.
func TestNoiseWordsFitScratch(t *testing.T) {
	for w := range entityNoise {
		if len(w) > maxNoiseLen {
			t.Fatalf("noise word %q is longer than maxNoiseLen %d", w, maxNoiseLen)
		}
	}
	for w := range stopwords {
		if len(w) > maxStopwordLen {
			t.Fatalf("stopword %q is longer than maxStopwordLen %d", w, maxStopwordLen)
		}
	}
	if max(maxNoiseLen, maxStopwordLen) > 8 {
		t.Fatal("inLower's buffer is 8 bytes")
	}
}

// TestNormalFormsAllocs: a value already in normal form costs nothing, any
// other exactly one allocation — the result itself.
func TestNormalFormsAllocs(t *testing.T) {
	for _, c := range []struct {
		in          string
		norm, stand float64
	}{
		{"delayed", 0, 0},
		{"michael mann", 0, 0},
		{"ca981", 0, 0},
		{"the", 0, 0},
		{"the inc", 0, 0},
		{"café", 0, 0},
		{"ca981 inc", 0, 1},
		{"flight ca981", 0, 1},
		{"Delayed", 1, 1},
		{"The Matrix", 1, 1},
		{"  michael  mann ", 1, 1},
		{"Flight CA981", 1, 1},
		{"K\u212a", 1, 1},
	} {
		if got := testing.AllocsPerRun(50, func() { NormalizeValue(c.in) }); got != c.norm {
			t.Errorf("NormalizeValue(%q): %.0f allocs, want %.0f", c.in, got, c.norm)
		}
		if got := testing.AllocsPerRun(50, func() { StandardizeName(c.in) }); got != c.stand {
			t.Errorf("StandardizeName(%q): %.0f allocs, want %.0f", c.in, got, c.stand)
		}
		// The streamed forms never allocate.
		if got := testing.AllocsPerRun(50, func() {
			CompareNormalized(c.in, "michael  MANN")
			HashAddNormalized(fnvOffset64, c.in)
			SameLower(c.in, "Flight CA981")
		}); got != 0 {
			t.Errorf("CompareNormalized / HashAddNormalized / SameLower(%q): %.0f allocs, want 0", c.in, got)
		}
	}
}

var normalSink string

// BenchmarkNormalForms times NormalizeValue and StandardizeName on an input
// already in normal form, on short values that need lower-casing, and on a
// ~1 KB chunk text like the fallback path's evidence.
func BenchmarkNormalForms(b *testing.B) {
	chunk := strings.Repeat("According to AirChina Official API, the status of Flight CA981 is Delayed. ", 14)
	for _, c := range []struct{ name, in string }{
		{"normal", "michael mann"},
		{"short", "The Silent Horizon"},
		{"chunk", chunk},
	} {
		b.Run("NormalizeValue/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				normalSink = NormalizeValue(c.in)
			}
		})
		b.Run("StandardizeName/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				normalSink = StandardizeName(c.in)
			}
		})
	}
}

func TestTokenizePropertyLowercaseIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Tokenize(s)
		for _, tok := range once {
			// Re-tokenising a token must return exactly that token.
			again := Tokenize(tok)
			if len(again) != 1 || again[0] != tok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
