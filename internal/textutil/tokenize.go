// Package textutil provides the low-level text primitives shared by every
// other module: tokenisation, similarity measures, stable hashing and
// empirical token distributions. Everything is deterministic; no module in
// this repository may depend on map iteration order or wall-clock time for
// results, and textutil is where that discipline starts.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords is the small English closed-class vocabulary dropped by
// TokenizeContent. The list is intentionally short: the simulated corpora are
// attribute-value shaped, and over-aggressive stopword removal hurts the
// mutual-information statistics computed in internal/confidence.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "and": true,
	"or": true, "in": true, "on": true, "at": true, "to": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"by": true, "for": true, "with": true, "from": true, "as": true,
	"that": true, "this": true, "it": true, "its": true,
}

// IsStopword reports whether tok is in the built-in stopword list.
// The token must already be lower-cased.
func IsStopword(tok string) bool { return stopwords[tok] }

// Tokenize splits s into lower-cased alphanumeric tokens. Runs of letters and
// digits form tokens; everything else is a separator. Tokenize keeps
// stopwords; use TokenizeContent when they should be dropped.
func Tokenize(s string) []string {
	var toks []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if isTokenRune(r) {
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

// isTokenRune is the segmentation rule: letters and digits form tokens,
// every other rune separates them.
func isTokenRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// CountTokens returns len(Tokenize(s)) without building the lower-cased copy
// or the token slice. It lower-cases rune by rune exactly as strings.ToLower
// does, so the two can never segment differently.
func CountTokens(s string) int {
	n := 0
	inToken := false
	for _, r := range s {
		tok := isTokenRune(unicode.ToLower(r))
		if tok && !inToken {
			n++
		}
		inToken = tok
	}
	return n
}

// TokenizeContent is Tokenize followed by stopword removal. If removal would
// leave nothing (e.g. the value is "The A"), the unfiltered tokens are
// returned so that callers never receive an empty slice for non-empty input.
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

// NGrams returns the contiguous n-grams of toks joined by a single space.
// n <= 0 or n > len(toks) yields nil.
func NGrams(toks []string, n int) []string {
	if n <= 0 || n > len(toks) {
		return nil
	}
	grams := make([]string, 0, len(toks)-n+1)
	for i := 0; i+n <= len(toks); i++ {
		grams = append(grams, strings.Join(toks[i:i+n], " "))
	}
	return grams
}

// NormalizeValue canonicalises an attribute value for comparison: tokens are
// lower-cased, surrounding punctuation is stripped, and the tokens are
// re-joined with single spaces. "  The Matrix " and "the matrix" normalise to
// the same string.
func NormalizeValue(s string) string {
	return strings.Join(Tokenize(s), " ")
}

// SameNormalized reports NormalizeValue(a) == NormalizeValue(b) without
// building either normal form: it walks both strings token by token,
// lower-casing rune by rune as CountTokens does, and allocates nothing.
func SameNormalized(a, b string) bool {
	i, j := 0, 0
	for {
		i, j = skipSeparators(a, i), skipSeparators(b, j)
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		// Both at a token start: the tokens must match rune for rune and end
		// together.
		for {
			ra, wa := lowerRuneAt(a, i)
			rb, wb := lowerRuneAt(b, j)
			inA := isTokenRune(ra)
			if inA != isTokenRune(rb) || (inA && ra != rb) {
				return false
			}
			if !inA {
				break
			}
			i, j = i+wa, j+wb
		}
	}
}

// lowerRuneAt decodes the rune at s[i:] lower-cased, with its width. Invalid
// bytes and the end of s decode as U+FFFD, a separator, just as
// strings.ToLower rewrites invalid bytes.
func lowerRuneAt(s string, i int) (rune, int) {
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.ToLower(r), w
}

// skipSeparators returns the offset of the first token rune of s at or after
// i, or len(s).
func skipSeparators(s string, i int) int {
	for i < len(s) {
		r, w := lowerRuneAt(s, i)
		if isTokenRune(r) {
			break
		}
		i += w
	}
	return i
}

// entityNoise lists the decorative tokens that vary between sources' surface
// forms of the same entity ("The Silent Horizon" / "Silent Horizon, The",
// "CA981" / "Flight CA981", "ACME" / "ACME Inc").
var entityNoise = map[string]bool{
	"the": true, "a": true, "an": true,
	"flight": true, "ticker": true, "stock": true,
	"inc": true, "co": true, "corp": true, "ltd": true,
}

// StandardizeName performs entity standardisation (the std.py phase of the
// knowledge-construction module): it canonicalises a surface form by
// lower-casing, stripping punctuation and dropping decorative tokens, so
// cross-source variants of one entity share a single identifier. When
// stripping would consume every token the normalised form is returned
// unchanged.
func StandardizeName(s string) string {
	toks := Tokenize(s)
	kept := toks[:0:0]
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
