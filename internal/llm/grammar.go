package llm

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// The simulated model's sentence grammars, matched by hand. Each grammar is
// one regular expression, given in its comment, and the matcher reproduces
// what Go's regexp package finds for it: captures are the same byte spans of
// the input. The rules that makes exact:
//
//   - (?i) is Unicode simple folding: a pattern letter matches every rune in
//     its unicode.SimpleFold orbit, so "ſ" (U+017F) matches s and the Kelvin
//     sign matches k, in literals and in the folded \w of the fact classes;
//   - \s is ASCII [\t\n\f\r ];
//   - . is every rune but '\n', an invalid byte reading as one U+FFFD rune;
//   - (.+?) is lazy: a capture takes the shortest span after which the rest
//     of the expression still matches, captures further left deciding first;
//   - \s+ before a capture is greedy, and gives runes back to the capture
//     only where that lets the expression match: a capture may be one \s
//     rune of a long run, or the last capture end in the trailing \s*\??\s*.
//
// The regexps themselves survive as the test oracles the matcher is fuzzed
// against (oracle_test.go).

// span is a capture: the byte offsets [start, end) of the matched string.
type span struct{ start, end int }

// grammar is an expression of the shape
//
//	^\s*LEAD\s+(C0)SEP0(C1)SEP1 … (Cn)\s*\??\s*$
//
// where LEAD is a list of words (lead) and each SEPi is \s+ w1 \s+ … wk \s+
// over the words of seps[i]; a word "x|y" is the alternation (?:x|y), and a
// ',' needs no \s around it. Every capture but the last is lazy over its
// class; the last is (.+?), and the tail after it is the matcher's:
// \s*\??\s*$ for the query grammars, \s*$ for the fact grammar.
type grammar struct {
	lead    string
	classes []class  // one per capture but the last
	seps    []string // the separator after each capture but the last
}

// The query grammars, tried in this order by ParseQuery.
var (
	// (?i)^\s*what\s+is\s+the\s+(.+?)\s+of\s+the\s+(.+?)\s+of\s+(.+?)\s*\??\s*$
	multiHopQ = grammar{lead: "what is the", classes: []class{anyRune, anyRune}, seps: []string{"of the", "of"}}
	// (?i)^\s*do\s+(.+?)\s+and\s+(.+?)\s+have\s+the\s+same\s+(.+?)\s*\??\s*$
	comparisonQ = grammar{lead: "do", classes: []class{anyRune, anyRune}, seps: []string{"and", "have the same"}}
	// (?i)^\s*what\s+is\s+the\s+(.+?)\s+of\s+(.+?)\s*\??\s*$
	attrQ = grammar{lead: "what is the", classes: []class{anyRune}, seps: []string{"of"}}
	// (?i)^\s*what\s+is\s+the\s+(?:real-?time\s+)?(.+?)\s+of\s+(.+?)\s*\??\s*$,
	// with the optional group taken: without it this is attrQ, which is
	// tried first. It matches what attrQ cannot only when a '\n' follows
	// "realtime", where attrQ's (.+?) would have to span it.
	statusQ = grammar{lead: "what is the real-time|realtime", classes: []class{anyRune}, seps: []string{"of"}}
)

// The fact-sentence grammar
//
//	(?i)^\s*(?:according to ([\w &'-]+?)\s*,\s*)?the\s+([\w -]+?)\s+of\s+(.+?)\s+(?:is|was|are|were)\s+(.+?)\s*$
//
// is sourcedFact after the literal "according to " (the optional group
// taken), and fact from the start when that fails.
var (
	sourcedFact = grammar{classes: []class{sourceRune, attrRune, anyRune}, seps: []string{", the", "of", "is|was|are|were"}}
	fact        = grammar{lead: "the", classes: []class{attrRune, anyRune}, seps: []string{"of", "is|was|are|were"}}
)

// class is the rune set a lazy capture may span.
type class uint8

const (
	anyRune    class = iota // .
	attrRune                // [\w -] under (?i)
	sourceRune              // [\w &'-] under (?i)
)

func (c class) has(r rune) bool {
	switch c {
	case anyRune:
		return r != '\n'
	case attrRune:
		return isFoldedWord(r) || r == ' ' || r == '-'
	default:
		return isFoldedWord(r) || r == ' ' || r == '&' || r == '\'' || r == '-'
	}
}

// isFoldedWord is \w under (?i): the ASCII word characters and the two runes
// that simple-fold onto them, ſ (s) and the Kelvin sign (k).
func isFoldedWord(r rune) bool {
	return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '_' ||
		r == '\u017f' || r == '\u212a'
}

// isSpace is regexp's \s.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// skipSpace returns the end of the \s run at s[i:].
func skipSpace(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// matcher matches one string against the grammars; after a successful match,
// caps holds its captures in order.
type matcher struct {
	s    string
	tail int // start of the longest suffix the trailing \s*\??\s*$ (or \s*$) matches
	nl   int // the last '\n' before tail, or -1
	caps [4]span
	// failed[n] records a scan of capture n that found no match starting
	// anywhere in [start, end): every end it could take there was tried, and
	// the rest of the expression does not depend on where the capture began.
	failed [4]span
}

// newMatcher prepares s for grammars whose tail is \s*\??\s*$ (question) or
// \s*$.
func newMatcher(s string, question bool) matcher {
	t := len(s)
	for t > 0 && isSpace(s[t-1]) {
		t--
	}
	if question && t > 0 && s[t-1] == '?' {
		t--
		for t > 0 && isSpace(s[t-1]) {
			t--
		}
	}
	return matcher{s: s, tail: t, nl: strings.LastIndexByte(s[:t], '\n')}
}

// match reports whether m.s matches g, filling m.caps.
func (m *matcher) match(g *grammar) bool {
	m.failed = [4]span{}
	a, b := m.sep(0, g.lead, true)
	return b >= 0 && m.capture(g, 0, a, b)
}

// matchFact matches the fact-sentence grammar. ok reports a match; its
// captures are then the source (empty when the sentence is not attributed),
// the attribute, the subject and the object.
func (m *matcher) matchFact() (source, attr, subject, object string, ok bool) {
	const according = "according to "
	if j := foldPrefix(m.s, skipSpace(m.s, 0), according); j >= 0 {
		m.failed = [4]span{}
		if m.capture(&sourcedFact, 0, j, j) {
			return m.text(0), m.text(1), m.text(2), m.text(3), true
		}
	}
	if m.match(&fact) {
		return "", m.text(0), m.text(1), m.text(2), true
	}
	return "", "", "", "", false
}

// text is capture n of the last match.
func (m *matcher) text(n int) string { return m.s[m.caps[n].start:m.caps[n].end] }

// capture matches capture n of g and everything after it, the capture
// starting after the greedy \s run [a, b) (a == b when nothing precedes it).
func (m *matcher) capture(g *grammar, n, a, b int) bool {
	if n == len(g.seps) {
		// The last capture: the greedy \s run gives back one rune at a time
		// until the capture can end in the tail.
		for p := b; p > a; p-- {
			if end := m.tailEnd(p); end >= 0 {
				m.caps[n] = span{p, end}
				return true
			}
		}
		return false
	}
	if m.scan(g, n, b) {
		return true
	}
	// Starting at b failed. The \s run may still give the capture runes
	// back: a capture starting at p in (a, b) can end inside the run, where
	// the separator takes the rest of the run and finds its words at b. Ends
	// past b are the ones that just failed, so what is left is the highest p
	// that leaves the separator one \s rune, with the shortest capture
	// there: the single rune at p, if the class admits it.
	if b-a < 3 {
		return false
	}
	c, p := g.classes[n], b-2
	for p > a && !c.has(rune(m.s[p])) {
		p--
	}
	if p == a {
		return false
	}
	if a2, b2 := m.sep(b-1, g.seps[n], false); b2 < 0 || !m.capture(g, n+1, a2, b2) {
		return false
	}
	m.caps[n] = span{p, p + 1}
	return true
}

// scan matches middle capture n of g starting at p, and everything after it.
func (m *matcher) scan(g *grammar, n, p int) bool {
	s := m.s
	if f := m.failed[n]; f.start <= p && p < f.end {
		return false
	}
	c := g.classes[n]
	if p == len(s) {
		return false
	}
	r, w := utf8.DecodeRuneInString(s[p:])
	if !c.has(r) {
		return false
	}
	// e walks the capture's possible ends, shortest first.
	e := p + w
	for e < len(s) {
		if a2, b2 := m.sep(e, g.seps[n], false); b2 >= 0 && m.capture(g, n+1, a2, b2) {
			m.caps[n] = span{p, e}
			return true
		}
		if isSpace(s[e]) {
			// Every end inside one \s run reaches the same separator, so
			// the run is skipped whole — if the capture may span it.
			f := skipSpace(s, e)
			for ; e < f; e++ {
				if !c.has(rune(s[e])) {
					break
				}
			}
			if e < f {
				break
			}
			continue
		}
		r, w := utf8.DecodeRuneInString(s[e:])
		if !c.has(r) {
			break
		}
		e += w
	}
	m.failed[n] = span{p, e}
	return false
}

// tailEnd returns where the last capture ends when it starts at p — the
// shortest non-empty span after which only the tail is left — or -1 when
// none exists because the span would cross a '\n'.
func (m *matcher) tailEnd(p int) int {
	switch {
	case p >= len(m.s):
		return -1
	case p < m.tail:
		if m.nl >= p {
			return -1
		}
		return m.tail
	case m.s[p] == '\n':
		return -1
	}
	return p + 1 // inside the tail every rune is one ASCII byte
}

// sep matches a separator's words at s[i:]: each word after a \s run that
// must be non-empty except before lead's first word and next to a ',', and
// the last word followed by a non-empty \s run, which it returns as [a, b).
// b < 0 means no match.
func (m *matcher) sep(i int, words string, lead bool) (a, b int) {
	s := m.s
	prev := ""
	for first := true; words != ""; first = false {
		var w string
		w, words, _ = strings.Cut(words, " ")
		j := skipSpace(s, i)
		if j == i && !(lead && first) && w != "," && prev != "," {
			return 0, -1
		}
		if i = matchWord(s, j, w); i < 0 {
			return 0, -1
		}
		prev = w
	}
	if b = skipSpace(s, i); b == i {
		return 0, -1
	}
	return i, b
}

// matchWord matches the first alternative of word ("is|was") that s[i:]
// starts with under (?i), returning the offset after it, or -1.
func matchWord(s string, i int, word string) int {
	for word != "" {
		var alt string
		alt, word, _ = strings.Cut(word, "|")
		if j := foldPrefix(s, i, alt); j >= 0 {
			return j
		}
	}
	return -1
}

// foldPrefix matches the lower-case ASCII literal lit at s[i:] under (?i),
// returning the offset after it, or -1.
func foldPrefix(s string, i int, lit string) int {
	for j := 0; j < len(lit); j++ {
		if i == len(s) {
			return -1
		}
		if c := s[i]; c < utf8.RuneSelf {
			if c != lit[j] && !('A' <= c && c <= 'Z' && c+'a'-'A' == lit[j]) {
				return -1
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !foldsTo(r, rune(lit[j])) {
			return -1
		}
		i += w
	}
	return i
}

// foldsTo reports whether r is in the simple-folding orbit of c.
func foldsTo(r, c rune) bool {
	for f := unicode.SimpleFold(c); f != c; f = unicode.SimpleFold(f) {
		if f == r {
			return true
		}
	}
	return r == c
}
