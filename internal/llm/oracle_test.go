package llm

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"multirag/internal/textutil"
)

// The regexps ParseQuery, ExtractEntities and ExtractTriples matched with
// before the grammar was written by hand (grammar.go), kept as the oracles
// the matcher is held to.
var (
	reMultiHopQ   = regexp.MustCompile(`(?i)^\s*what\s+is\s+the\s+(.+?)\s+of\s+the\s+(.+?)\s+of\s+(.+?)\s*\??\s*$`)
	reAttrQ       = regexp.MustCompile(`(?i)^\s*what\s+is\s+the\s+(.+?)\s+of\s+(.+?)\s*\??\s*$`)
	reComparisonQ = regexp.MustCompile(`(?i)^\s*do\s+(.+?)\s+and\s+(.+?)\s+have\s+the\s+same\s+(.+?)\s*\??\s*$`)
	reStatusQ     = regexp.MustCompile(`(?i)^\s*what\s+is\s+the\s+(?:real-?time\s+)?(.+?)\s+of\s+(.+?)\s*\??\s*$`)
	reFact        = regexp.MustCompile(`(?i)^\s*(?:according to ([\w &'-]+?)\s*,\s*)?the\s+([\w -]+?)\s+of\s+(.+?)\s+(?:is|was|are|were)\s+(.+?)\s*$`)
)

// oracleParseQuery is ParseQuery as it was: four regexps, then NER through
// oracleExtractEntities. It charges s's usage exactly as ParseQuery does.
func oracleParseQuery(s *Sim, query string) LogicForm {
	s.usage.record(tokens(query)+12, 24)
	for _, qualifier := range qualifiers {
		query = strings.ReplaceAll(query, qualifier, "")
	}
	if m := reMultiHopQ.FindStringSubmatch(query); m != nil {
		return LogicForm{
			Intent:    "multi_hop",
			Entities:  []string{strings.TrimSpace(m[3])},
			Relations: []string{oracleNormRel(m[2]), oracleNormRel(m[1])},
		}
	}
	if m := reComparisonQ.FindStringSubmatch(query); m != nil {
		return LogicForm{
			Intent:    "comparison",
			Entities:  []string{strings.TrimSpace(m[1]), strings.TrimSpace(m[2])},
			Relations: []string{oracleNormRel(m[3])},
		}
	}
	if m := reAttrQ.FindStringSubmatch(query); m != nil {
		return LogicForm{
			Intent:    "attribute_lookup",
			Entities:  []string{strings.TrimSpace(m[2])},
			Relations: []string{oracleNormRel(m[1])},
		}
	}
	if m := reStatusQ.FindStringSubmatch(query); m != nil {
		return LogicForm{
			Intent:    "attribute_lookup",
			Entities:  []string{strings.TrimSpace(m[2])},
			Relations: []string{oracleNormRel(m[1])},
		}
	}
	var lf LogicForm
	lf.Intent = "unknown"
	for _, men := range oracleExtractEntities(s, query) {
		lf.Entities = append(lf.Entities, men.Name)
	}
	return lf
}

func oracleNormRel(rel string) string {
	return strings.Join(textutil.Tokenize(rel), "_")
}

// oracleExtractEntities is ExtractEntities as it was: a map of lower-cased
// names, sentences and capitalised runs as slices.
func oracleExtractEntities(s *Sim, text string) []Mention {
	s.usage.record(tokens(text)+20, 16)
	seen := map[string]bool{}
	var out []Mention
	add := func(name, typ string) {
		name = strings.TrimSpace(name)
		if name == "" {
			return
		}
		key := strings.ToLower(name)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Mention{Name: name, Type: typ})
	}
	for _, sent := range oracleSplitSentences(text) {
		if m := reFact.FindStringSubmatch(sent); m != nil {
			add(m[3], "Entity")
			add(m[4], "Value")
			if m[1] != "" {
				add(m[1], "Source")
			}
			continue
		}
		for _, run := range oracleCapitalRuns(sent) {
			add(run, "Entity")
		}
	}
	return out
}

// oracleExtractTriples is ExtractTriples as it was: reFact per sentence and a
// map of known lower-cased entity names.
func oracleExtractTriples(s *Sim, text string, entities []Mention) []SPO {
	s.usage.record(tokens(text)+len(entities)*3+24, 32)
	known := map[string]bool{}
	for _, e := range entities {
		known[strings.ToLower(strings.TrimSpace(e.Name))] = true
	}
	var out []SPO
	for _, sent := range oracleSplitSentences(text) {
		m := reFact.FindStringSubmatch(sent)
		if m == nil {
			continue
		}
		subj := strings.TrimSpace(m[3])
		pred := oracleNormRel(m[2])
		obj := strings.TrimSpace(m[4])
		if len(known) > 0 && !known[strings.ToLower(subj)] {
			continue
		}
		conf := 0.92
		if m[1] != "" {
			conf = 0.85
		}
		if s.cfg.ExtractionNoise > 0 {
			draw := s.coin("extract|", sent)
			if draw < s.cfg.ExtractionNoise/2 {
				continue
			}
			if draw < s.cfg.ExtractionNoise {
				obj = corruptValue(obj, s.cfg.Seed)
				conf = 0.41
			}
		}
		out = append(out, SPO{Subject: subj, Predicate: pred, Object: obj, Confidence: conf})
	}
	return out
}

func oracleSplitSentences(text string) []string {
	var out []string
	for _, part := range strings.FieldsFunc(text, func(r rune) bool { return r == '.' || r == '\n' || r == ';' }) {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func oracleCapitalRuns(sent string) []string {
	words := strings.Fields(sent)
	var runs []string
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			runs = append(runs, strings.Join(cur, " "))
			cur = nil
		}
	}
	for _, w := range words {
		trimmed := strings.Trim(w, ",:;!?()\"'")
		if trimmed == "" {
			flush()
			continue
		}
		first := rune(trimmed[0])
		if first >= 'A' && first <= 'Z' {
			cur = append(cur, trimmed)
		} else {
			flush()
		}
	}
	flush()
	return runs
}

// grammarCorpus is the seed set of the grammar oracles: the queries of the
// tests in this package, the benchmark's free-text templates, and the
// corners of regexp semantics the matcher must keep — simple folding (ſ, the
// Kelvin sign), '\n' where . may not go, \s runs the last capture takes
// back, invalid UTF-8, and repeated " of the ".
var grammarCorpus = []string{
	"What is the director of The Matrix?",
	"What is the birthplace of the director of Heat?",
	"Do Heat and Inception have the same director?",
	"What is the departure time of Flight CA981?",
	"What is the Real-Time status of Flight CA981?",
	"What is the real time status of Flight CA981?",
	"What is the Current status of Flight CA981?",
	"What is the Latest status of Flight CA981?",
	"What is the realtime status of X?",
	"What is the realtime\nstatus of X?",
	"What is the real-time\n status of X?",
	"what iſ the ſtatus of KX",
	"WHAT IS THE STATUS OF CA981",
	"what is the status of  ",
	"what is the status of \n",
	"what is the status of \t?",
	"what is the status of  ? ",
	"what is the status of x\n?",
	"what is the status\nof x",
	"what is the st\natus of x",
	"what is the a of the b of the c of the d of e?",
	"what is the a of the b of the c of the d of",
	"what is the a of the b of the c of the d of the\n",
	"what is the x of the y of\nz?",
	"do a and b and c have the same d and e?",
	"Do X and Y have the same\nsize?",
	"do \xff and \xc3( have the same ?",
	"Anything interesting regarding Flight CA981 lately",
	"Tell me something about Air China please",
	"Any recent news concerning Beijing Capital International Airport",
	"The director of The Matrix is Lana Wachowski. According to imdb, the year of The Matrix is 1999.",
	"The director of Heat is Michael Mann. The year of Heat is 1995. The genre of Heat is crime.",
	"The status of Flight CA981 is Delayed, according to AirChina Official API.",
	"according to A & B's-feed , the status of X was late",
	"According to ſite,the ſtatus of X are  ",
	"according to x\t, the a b of c is d;the e of f were g",
	"the a\tb of c is d",
	"the a-b_c of x is y is z",
	"the status of X of Y is is Z",
	"The 0 of   is 0000",
	"the a of  \n is b",
	"what is the   of x",
	"what is the \n  of x",
	"do   and   have the same  ?",
	"ACME Inc, (Air)  China: Beijing!  \"Capital\" International; Air china",
	"Paris  Texas \u0085Rome İstanbul KELVIN Kelvin",
	"",
	" . ; \n",
}

// checkGrammar holds ParseQuery, ExtractEntities and ExtractTriples on text
// to the regexp oracles: deep-equal results and equal usage.
func checkGrammar(t *testing.T, text string) {
	t.Helper()
	got, want := NewSim(Config{Seed: 1, ExtractionNoise: 0.3}), NewSim(Config{Seed: 1, ExtractionNoise: 0.3})
	if a, b := got.ParseQuery(text), oracleParseQuery(want, text); !reflect.DeepEqual(a, b) {
		t.Fatalf("ParseQuery(%q) = %#v, oracle %#v", text, a, b)
	}
	ma, mb := got.ExtractEntities(text), oracleExtractEntities(want, text)
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("ExtractEntities(%q) = %#v, oracle %#v", text, ma, mb)
	}
	for _, ents := range [][]Mention{nil, ma, {{Name: " x "}}} {
		if a, b := got.ExtractTriples(text, ents), oracleExtractTriples(want, text, ents); !reflect.DeepEqual(a, b) {
			t.Fatalf("ExtractTriples(%q, %q) = %#v, oracle %#v", text, ents, a, b)
		}
	}
	if got.Usage() != want.Usage() {
		t.Fatalf("%q: usage %+v, oracle %+v", text, got.Usage(), want.Usage())
	}
	// The fact matcher on its own, on the whole text rather than sentences,
	// so '\n' and the sentence separators reach it too.
	m := newMatcher(text, false)
	source, attr, subject, object, ok := m.matchFact()
	if sm := reFact.FindStringSubmatch(text); ok != (sm != nil) ||
		ok && !reflect.DeepEqual([]string{source, attr, subject, object}, sm[1:]) {
		t.Fatalf("matchFact(%q) = %q %q %q %q %v, oracle %q", text, source, attr, subject, object, ok, sm)
	}
}

// manyMentions is a text with more than scanLimit distinct mentions and
// facts, each name recurring in other cases (the Kelvin sign for a k among
// them), so NER's and ExtractTriples' lower-cased lookups run as maps.
func manyMentions() string {
	var b strings.Builder
	for i := 0; i < 3*scanLimit; i++ {
		name := fmt.Sprintf("Kk%c%d", 'A'+i%26, i)
		fmt.Fprintf(&b, "The status of %s is Late%d. %s and %s met; ", name, i%7, strings.ToLower(name), "K\u212a"+name[2:])
	}
	return b.String()
}

func TestGrammarCorpusMatchesOracle(t *testing.T) {
	for _, text := range append(grammarCorpus, manyMentions()) {
		checkGrammar(t, text)
	}
	if n := len(newTestSim().ExtractEntities(manyMentions())); n <= scanLimit {
		t.Fatalf("manyMentions has %d mentions, want more than scanLimit %d", n, scanLimit)
	}
}

// TestGrammarRandomMatchesOracle runs the oracle comparison over seeded
// strings assembled from the grammars' own words, case and fold variants,
// separators of every \s kind, punctuation the classes admit or refuse, and
// invalid bytes — the inputs on which a lazy capture or a greedy run is most
// likely to land somewhere else than regexp's.
func TestGrammarRandomMatchesOracle(t *testing.T) {
	words := []string{
		"what", "WHAT", "is", "iſ", "the", "The", "of", "OF", "do", "and", "have", "same", "ſame",
		"real-time", "realtime", "Real-Time", "according", "to", "was", "are", "were", "Kelvin",
		"X", "Flight", "CA981", "a-b", "A&B", "it's", "_", "?", ",", ".", ";", "(Air)", "\"Q\"", "\xff", "İ",
	}
	seps := []string{" ", " ", " ", "  ", "\t", "\n", "\r", "\f", "\v", "", ", ", " "}
	rng := rand.New(rand.NewSource(28))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		if rng.Intn(4) == 0 {
			b.WriteString(grammarCorpus[rng.Intn(len(grammarCorpus))])
		}
		for k := rng.Intn(12); k >= 0; k-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		checkGrammar(t, b.String())
	}
}

// FuzzParseQuery holds the hand-written query grammar to the four-regexp
// oracle: deep-equal LogicForm and equal usage.
func FuzzParseQuery(f *testing.F) {
	for _, q := range grammarCorpus {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		got, want := newTestSim(), newTestSim()
		if a, b := got.ParseQuery(q), oracleParseQuery(want, q); !reflect.DeepEqual(a, b) {
			t.Fatalf("ParseQuery(%q) = %#v, oracle %#v", q, a, b)
		}
		if got.Usage() != want.Usage() {
			t.Fatalf("%q: usage %+v, oracle %+v", q, got.Usage(), want.Usage())
		}
	})
}

// FuzzExtract holds ExtractEntities and ExtractTriples to the reFact oracle
// on arbitrary text, with and without an entity list.
func FuzzExtract(f *testing.F) {
	for _, q := range append(grammarCorpus, manyMentions()) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, text string) { checkGrammar(t, text) })
}
