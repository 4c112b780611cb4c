package textutil

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unicode/utf8"
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

// TestCountTokensMatchesTokenize pins CountTokens(s) == len(Tokenize(s)):
// over the Tokenize table, over hand-picked case-mapping oddities (runes whose
// lower-case form changes byte length, script or category, and invalid
// UTF-8), and over seeded random strings drawn from an alphabet of those
// runes mixed with ASCII.
func TestCountTokensMatchesTokenize(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := CountTokens(s), len(Tokenize(s)); got != want {
			t.Fatalf("CountTokens(%q) = %d, len(Tokenize) = %d (%q)", s, got, want, Tokenize(s))
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

func TestNGrams(t *testing.T) {
	toks := []string{"a", "b", "c", "d"}
	if got := NGrams(toks, 2); !reflect.DeepEqual(got, []string{"a b", "b c", "c d"}) {
		t.Errorf("bigrams = %v", got)
	}
	if got := NGrams(toks, 4); !reflect.DeepEqual(got, []string{"a b c d"}) {
		t.Errorf("4-gram = %v", got)
	}
	if NGrams(toks, 5) != nil || NGrams(toks, 0) != nil {
		t.Errorf("out-of-range n must give nil")
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
