// Package textutil provides the low-level text primitives shared by every
// other module: tokenisation, similarity measures, stable hashing and
// empirical token distributions. Everything is deterministic; no module in
// this repository may depend on map iteration order or wall-clock time for
// results, and textutil is where that discipline starts.
package textutil

import (
	"cmp"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords is the small English closed-class vocabulary EachContentToken
// drops. The list is intentionally short: the simulated corpora are
// attribute-value shaped, and over-aggressive stopword removal hurts the
// mutual-information statistics computed in internal/confidence.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "and": true,
	"or": true, "in": true, "on": true, "at": true, "to": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"by": true, "for": true, "with": true, "from": true, "as": true,
	"that": true, "this": true, "it": true, "its": true,
}

// Tokenize splits s into lower-cased alphanumeric tokens. Runs of letters and
// digits form tokens; everything else is a separator. Tokenize keeps
// stopwords; EachContentToken drops them.
func Tokenize(s string) []string {
	n := CountTokens(s)
	if n == 0 {
		return nil
	}
	toks := make([]string, 0, n)
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
func isTokenRune(r rune) bool {
	if r < utf8.RuneSelf {
		return isTokenByte(byte(r))
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isTokenByte is isTokenRune for an ASCII byte.
func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || 'A' <= c && c <= 'Z'
}

// CountTokens returns len(Tokenize(s)) without building the lower-cased copy
// or the token slice. It lower-cases rune by rune exactly as strings.ToLower
// does, so the two can never segment differently.
func CountTokens(s string) int {
	for n, i := 0, 0; ; n++ {
		start, end, _, _ := nextToken(s, i)
		if start == len(s) {
			return n
		}
		i = end
	}
}

// maxStopwordLen is the byte length of the longest stopword.
const maxStopwordLen = 4

// EachContentToken calls fn with every token of Tokenize(s) that is not a
// stopword, in order, and allocates nothing: each token is passed as its span
// of s, which lower-cases (rune by rune, as strings.ToLower maps it) to the
// token. A caller hashes a span with HashAddLower. When every token is a
// stopword, every token is passed, so non-empty text always yields one.
func EachContentToken(s string, fn func(tok string)) {
	content := false
	for i := 0; ; {
		start, end, _, _ := nextToken(s, i)
		if start == len(s) {
			break
		}
		i = end
		if tok := s[start:end]; !inLower(stopwords, maxStopwordLen, tok) {
			content = true
			fn(tok)
		}
	}
	if content {
		return
	}
	for i := 0; ; {
		start, end, _, _ := nextToken(s, i)
		if start == len(s) {
			return
		}
		i = end
		fn(s[start:end])
	}
}

// NormalizeValue canonicalises an attribute value for comparison: tokens are
// lower-cased, surrounding punctuation is stripped, and the tokens are
// re-joined with single spaces. "  The Matrix " and "the matrix" normalise to
// the same string. A value already in that form is returned as is (the
// result may alias s); any other costs one allocation of exactly its size.
func NormalizeValue(s string) string { return normalForm(s, false, ' ') }

// AppendNormalizeValue appends NormalizeValue(s) to dst and returns the
// extended buffer; with room in dst it allocates nothing.
func AppendNormalizeValue(dst []byte, s string) []byte {
	for i, first := 0, true; ; first = false {
		start, end, _, lower := nextToken(s, i)
		if start == len(s) {
			return dst
		}
		if !first {
			dst = append(dst, ' ')
		}
		if tok := s[start:end]; lower {
			dst = append(dst, tok...)
		} else {
			for j := 0; j < len(tok); {
				r, w := lowerRuneAt(tok, j)
				dst = utf8.AppendRune(dst, r)
				j += w
			}
		}
		i = end
	}
}

// NormalizeRelation is NormalizeValue with the tokens joined by '_' instead
// of a space — strings.Join(Tokenize(s), "_"), the relation names the logic
// form carries ("Departure Time" → "departure_time"). Like NormalizeValue it
// returns s itself when s already is that form.
func NormalizeRelation(s string) string { return normalForm(s, false, '_') }

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

// CompareNormalized returns strings.Compare(NormalizeValue(a),
// NormalizeValue(b)) without building either normal form: it compares the
// two rune by rune as normalRune streams them. Runes compare in code-point
// order, which is the byte order of their UTF-8 forms.
func CompareNormalized(a, b string) int {
	i, j := skipSeparators(a, 0), skipSeparators(b, 0)
	for {
		var ra, rb rune
		ra, i = normalRune(a, i)
		rb, j = normalRune(b, j)
		if ra != rb || ra < 0 {
			return cmp.Compare(ra, rb)
		}
	}
}

// normalRune reads the next rune of NormalizeValue(s) at byte i of s, where
// i is skipSeparators(s, 0) or an offset normalRune returned: a token rune
// lower-cased, the space between two tokens, or -1 past the last token, so
// that the end sorts below the space and the space below every token rune.
func normalRune(s string, i int) (rune, int) {
	if r, w := lowerRuneAt(s, i); i < len(s) && isTokenRune(r) {
		return r, i + w
	}
	if i = skipSeparators(s, i); i == len(s) {
		return -1, i
	}
	return ' ', i
}

// HashAddNormalized continues the FNV-1a state h over NormalizeValue(s):
// HashAdd(h, NormalizeValue(s)) with the normal form never built.
func HashAddNormalized(h uint64, s string) uint64 {
	for i, first := 0, true; ; first = false {
		start, end, _, _ := nextToken(s, i)
		if start == len(s) {
			return h
		}
		i = end
		if !first {
			h = (h ^ ' ') * fnvPrime64
		}
		h = HashAddLower(h, s[start:end])
	}
}

// SameLower reports strings.ToLower(a) == strings.ToLower(b) without building
// either: it compares the two rune by rune, lower-cased as strings.ToLower
// maps them, invalid bytes reading as U+FFFD.
func SameLower(a, b string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, wa := lowerRuneAt(a, i)
		rb, wb := lowerRuneAt(b, j)
		if ra != rb {
			return false
		}
		i, j = i+wa, j+wb
	}
	return i == len(a) && j == len(b)
}

// ContainsLower reports strings.Contains(strings.ToLower(s), word) for an
// ASCII word without building the lower-cased copy: it matches word against
// s's runes lower-cased one at a time, so runes that lower-case onto ASCII
// (the Kelvin sign onto k) match as they do in the copy.
func ContainsLower(s, word string) bool {
	for i := 0; i < len(s); {
		if hasLowerPrefix(s[i:], word) {
			return true
		}
		_, w := utf8.DecodeRuneInString(s[i:])
		i += w
	}
	return word == ""
}

// hasLowerPrefix reports whether s, lower-cased, starts with the ASCII word.
func hasLowerPrefix(s, word string) bool {
	i := 0
	for j := 0; j < len(word); j++ {
		if i == len(s) {
			return false
		}
		r, w := lowerRuneAt(s, i)
		if r != rune(word[j]) {
			return false
		}
		i += w
	}
	return true
}

// lowerRuneAt decodes the rune at s[i:] lower-cased, with its width. Invalid
// bytes and the end of s decode as U+FFFD, a separator, just as
// strings.ToLower rewrites invalid bytes. ASCII skips the decoder and the
// case tables.
func lowerRuneAt(s string, i int) (rune, int) {
	if i < len(s) && s[i] < utf8.RuneSelf {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	return decodeLower(s[i:])
}

// decodeLower is lowerRuneAt's general path: the first rune of s lower-cased,
// with its width.
func decodeLower(s string) (rune, int) {
	r, w := utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), w
}

// skipSeparators returns the offset of the first token rune of s at or after
// i, or len(s).
func skipSeparators(s string, i int) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if isTokenByte(c) {
				break
			}
			i++
			continue
		}
		r, w := decodeLower(s[i:])
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

// maxNoiseLen is the byte length of the longest entityNoise word.
const maxNoiseLen = 6

// StandardizeName performs entity standardisation (the std.py phase of the
// knowledge-construction module): it canonicalises a surface form by
// lower-casing, stripping punctuation and dropping decorative tokens, so
// cross-source variants of one entity share a single identifier. When
// stripping would consume every token the normalised form is returned
// unchanged. Like NormalizeValue, a name already in standard form is returned
// as is and any other costs one exact-size allocation.
func StandardizeName(s string) string { return normalForm(s, true, ' ') }

// normalForm builds NormalizeValue(s), or StandardizeName(s) when dropNoise
// is set, with the tokens joined by sep, in two passes over s: the first
// sizes the result and notices when s already is it, the second writes it
// into one buffer of exactly that size.
func normalForm(s string, dropNoise bool, sep byte) string {
	// Sizes of the normal form over every token and over the non-noise ones,
	// in bytes and in tokens; same stays true while s reads as its own normal
	// form: lower-case tokens, one sep between them, nothing around.
	var allLen, allToks, keptLen, keptToks int
	same := true
	for i := 0; ; {
		start, end, n, lower := nextToken(s, i)
		if start == len(s) {
			same = same && i == len(s)
			break
		}
		if allToks == 0 {
			same = same && start == 0
		} else {
			same = same && start == i+1 && s[i] == sep
		}
		same = same && lower
		allLen += n
		allToks++
		if !dropNoise || !isNoise(s[start:end]) {
			keptLen += n
			keptToks++
		}
		i = end
	}
	keepAll := keptToks == 0 || keptToks == allToks
	if keepAll && same {
		return s
	}
	size := keptLen + keptToks - 1
	if keepAll {
		size = allLen + allToks - 1
	}
	if size <= 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(size)
	for i := 0; ; {
		start, end, _, lower := nextToken(s, i)
		if start == len(s) {
			break
		}
		i = end
		tok := s[start:end]
		if !keepAll && isNoise(tok) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(sep)
		}
		if lower {
			b.WriteString(tok)
			continue
		}
		for j := 0; j < len(tok); {
			if c := tok[j]; c < utf8.RuneSelf {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				b.WriteByte(c)
				j++
				continue
			}
			r, w := decodeLower(tok[j:])
			b.WriteRune(r)
			j += w
		}
	}
	return b.String()
}

// nextToken finds the first token of s at or after byte i. It returns the
// token's span [start, end) in s, the byte length of its lower-cased form,
// and whether lower-casing leaves it unchanged; start is len(s) when no token
// is left. Runes are decoded and lower-cased one at a time exactly as
// CountTokens does, so the tokens are Tokenize's.
func nextToken(s string, i int) (start, end, n int, lower bool) {
	start = skipSeparators(s, i)
	lower = true
	for end = start; end < len(s); {
		if c := s[end]; c < utf8.RuneSelf {
			switch {
			case 'A' <= c && c <= 'Z':
				lower = false
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			default:
				return start, end, n, lower
			}
			n++
			end++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[end:])
		l := unicode.ToLower(r)
		if !isTokenRune(l) {
			break
		}
		lower = lower && l == r
		n += utf8.RuneLen(l)
		end += w
	}
	return start, end, n, lower
}

// isNoise reports whether token tok lower-cases to an entityNoise word,
// without building the lower-cased string.
func isNoise(tok string) bool { return inLower(entityNoise, maxNoiseLen, tok) }

// inLower reports whether tok lower-cases to a word of set, every one of
// which is ASCII and at most maxLen bytes long, without building the
// lower-cased string.
func inLower(set map[string]bool, maxLen int, tok string) bool {
	var buf [8]byte
	n := 0
	for j := 0; j < len(tok); {
		r, w := lowerRuneAt(tok, j)
		if r >= utf8.RuneSelf || n == maxLen {
			return false
		}
		buf[n] = byte(r)
		n++
		j += w
	}
	return set[string(buf[:n])]
}
