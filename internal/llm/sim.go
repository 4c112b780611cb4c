package llm

import (
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"multirag/internal/textutil"
)

// Config parameterises the simulated model.
type Config struct {
	// Seed drives every pseudo-random decision; equal seeds give equal runs.
	Seed uint64
	// BaseHallucination is the probability of a wrong answer even with a
	// perfectly consistent context (the LLM's residual internal-knowledge
	// hallucination, §I of the paper).
	BaseHallucination float64
	// ConflictSensitivity scales how fast the hallucination probability
	// grows with the conflict rate of the prompt context. This is the
	// load-bearing knob: retrieval pipelines that do not filter conflicting
	// evidence pay for it here.
	ConflictSensitivity float64
	// ExtractionNoise is the per-sentence probability that triple extraction
	// drops or corrupts a triple.
	ExtractionNoise float64
	// AcceptFraction controls multi-truth answers: value groups whose weight
	// is at least AcceptFraction × the top group's weight are all returned.
	AcceptFraction float64
	// Cost prices calls for the virtual-time model; zero means
	// DefaultCostModel.
	Cost CostModel
}

// DefaultConfig mirrors the behaviour calibrated against the paper's reported
// baseline accuracy bands.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		BaseHallucination:   0.03,
		ConflictSensitivity: 0.9,
		ExtractionNoise:     0.05,
		AcceptFraction:      0.5,
		Cost:                DefaultCostModel,
	}
}

// Sim is the deterministic simulated LLM. It is safe for concurrent use.
type Sim struct {
	cfg   Config
	name  string
	usage usageBox
}

var _ Model = (*Sim)(nil)

// NewSim builds a simulated model from cfg, filling zeroed fields with the
// defaults.
func NewSim(cfg Config) *Sim {
	def := DefaultConfig()
	if cfg.ConflictSensitivity == 0 {
		cfg.ConflictSensitivity = def.ConflictSensitivity
	}
	if cfg.AcceptFraction == 0 {
		cfg.AcceptFraction = def.AcceptFraction
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = def.Cost
	}
	return &Sim{cfg: cfg, name: "sim-llama3-8b"}
}

// Name implements Model.
func (s *Sim) Name() string { return s.name }

// Fork returns a Sim with the same configuration (and therefore bit-identical
// outputs — every decision is keyed only by the seed and the input text) but a
// private usage tally. The pipelined ingest engine forks the ingest model once
// per Ingest call, so concurrent extraction fan-outs meter their virtual LLM
// latency per caller instead of reading interleaved before/after diffs off one
// shared counter.
func (s *Sim) Fork() *Sim { return &Sim{cfg: s.cfg, name: s.name} }

// AddUsage folds an externally accumulated tally (typically a Fork's) into
// this model's accounting, keeping aggregate Usage views exact when work is
// metered on forks.
func (s *Sim) AddUsage(u Usage) { s.usage.add(u) }

// coin returns a deterministic pseudo-uniform draw in [0,1) keyed by the
// model seed and the concatenation of key's parts, bit for bit
// textutil.Hash01(fmt.Sprintf("%d|%s", seed, key)) but with no string built.
func (s *Sim) coin(key ...string) float64 {
	return textutil.SeededHash01(s.cfg.Seed, key...)
}

// qualifiers are the temporal qualifiers ParseQuery strips, each in lower and
// title case, in the order they are removed.
var qualifiers = []string{
	"real-time ", "Real-Time ",
	"real time ", "Real Time ",
	"current ", "Current ",
	"latest ", "Latest ",
}

// ParseQuery implements logic-form generation (MKLGP line 2). It recognises
// the query grammars the benchmark datasets emit (grammar.go) and falls back
// to NER for anything else. Temporal qualifiers ("real-time", "current") are
// dropped from the requested attribute. A logic form's Entities and
// Relations share one backing array; a relation that is already a relation
// name and every entity are substrings of query.
func (s *Sim) ParseQuery(query string) LogicForm {
	s.usage.record(tokens(query)+12, 24)
	for _, qualifier := range qualifiers {
		query = strings.ReplaceAll(query, qualifier, "")
	}
	m := newMatcher(query, true)
	switch {
	case m.match(&multiHopQ):
		v := []string{m.entity(2), m.relation(1), m.relation(0)}
		return LogicForm{Intent: "multi_hop", Entities: v[:1:1], Relations: v[1:]}
	case m.match(&comparisonQ):
		v := []string{m.entity(0), m.entity(1), m.relation(2)}
		return LogicForm{Intent: "comparison", Entities: v[:2:2], Relations: v[2:]}
	case m.match(&attrQ), m.match(&statusQ):
		v := []string{m.entity(1), m.relation(0)}
		return LogicForm{Intent: "attribute_lookup", Entities: v[:1:1], Relations: v[1:]}
	}
	lf := LogicForm{Intent: "unknown"}
	var buf [mentionBuf]Mention
	if ms := s.mentions(buf[:0], query); len(ms) > 0 {
		lf.Entities = make([]string, len(ms))
		for i, men := range ms {
			lf.Entities[i] = men.Name
		}
	}
	return lf
}

// entity is capture n of the last match as an entity surface form.
func (m *matcher) entity(n int) string { return strings.TrimSpace(m.text(n)) }

// relation is capture n of the last match as a relation name.
func (m *matcher) relation(n int) string { return textutil.NormalizeRelation(m.text(n)) }

// mentionBuf is how many mentions or triples a call collects on the stack
// before its result is copied out at its exact size.
const mentionBuf = 16

// scanLimit is how many names a lower-cased comparison scans before it
// becomes a map of lower-cased names: a text or entity list from outside
// may hold thousands, and a scan over all of them per name is quadratic.
const scanLimit = 32

// ExtractEntities implements NER (ner.py equivalent): entities are the
// subjects and objects of the benchmark sentence grammar, with a
// capitalised-run fallback for free text.
func (s *Sim) ExtractEntities(text string) []Mention {
	var buf [mentionBuf]Mention
	ms := s.mentions(buf[:0], text)
	if len(ms) == 0 {
		return nil
	}
	return append(make([]Mention, 0, len(ms)), ms...)
}

// mentions charges one NER call and appends text's mentions to dst, each
// once: a mention whose lower-cased name equals an earlier one's is dropped.
// It walks sentences and capitalised runs in place, so a mention costs
// nothing unless its run's words are not separated by single spaces or the
// text holds more than scanLimit of them.
func (s *Sim) mentions(dst []Mention, text string) []Mention {
	s.usage.record(tokens(text)+20, 16)
	var seen map[string]bool // lower-cased names, past scanLimit mentions
	add := func(name, typ string) {
		name = strings.TrimSpace(name)
		if name == "" {
			return
		}
		if seen == nil && len(dst) >= scanLimit {
			seen = make(map[string]bool, 2*len(dst))
			for _, m := range dst {
				seen[strings.ToLower(m.Name)] = true
			}
		}
		if seen != nil {
			key := strings.ToLower(name)
			if seen[key] {
				return
			}
			seen[key] = true
		} else {
			for _, m := range dst {
				if textutil.SameLower(m.Name, name) {
					return
				}
			}
		}
		dst = append(dst, Mention{Name: name, Type: typ})
	}
	for i := 0; ; {
		var sent string
		if sent, i = nextSentence(text, i); sent == "" {
			return dst
		}
		m := newMatcher(sent, false)
		if source, _, subject, object, ok := m.matchFact(); ok {
			add(subject, "Entity")
			add(object, "Value")
			if source != "" {
				add(source, "Source")
			}
			continue
		}
		// Fallback: runs of capitalised words.
		for j := 0; ; {
			var run string
			if run, j = nextCapitalRun(sent, j); run == "" {
				break
			}
			add(run, "Entity")
		}
	}
}

// ExtractTriples implements SPO extraction (triple.py equivalent) with
// seeded extraction noise: each matched sentence is dropped or its object
// corrupted with probability ExtractionNoise, mimicking imperfect LLM
// extraction.
func (s *Sim) ExtractTriples(text string, entities []Mention) []SPO {
	s.usage.record(tokens(text)+len(entities)*3+24, 32)
	var buf [mentionBuf]SPO
	out := buf[:0]
	var known map[string]bool // lower-cased entity names, past scanLimit
	if len(entities) > scanLimit {
		known = make(map[string]bool, len(entities))
		for _, e := range entities {
			known[strings.ToLower(strings.TrimSpace(e.Name))] = true
		}
	}
	for i := 0; ; {
		var sent string
		if sent, i = nextSentence(text, i); sent == "" {
			break
		}
		m := newMatcher(sent, false)
		source, attr, subject, object, ok := m.matchFact()
		if !ok {
			continue
		}
		subj := strings.TrimSpace(subject)
		// triple.py's instruction: extracted SPO must relate to the entity
		// list. Unknown subjects are skipped when an entity list is given.
		if len(entities) > 0 && !knownEntity(entities, known, subj) {
			continue
		}
		obj := strings.TrimSpace(object)
		conf := 0.92
		if source != "" {
			// Attributed / reported speech ("According to X, ...") is a
			// hedged claim and extracts with slightly lower confidence.
			conf = 0.85
		}
		if s.cfg.ExtractionNoise > 0 {
			draw := s.coin("extract|", sent)
			if draw < s.cfg.ExtractionNoise/2 {
				continue // dropped triple
			}
			if draw < s.cfg.ExtractionNoise {
				obj = corruptValue(obj, s.cfg.Seed) // corrupted object
				conf = 0.41
			}
		}
		out = append(out, SPO{Subject: subj, Predicate: textutil.NormalizeRelation(attr), Object: obj, Confidence: conf})
	}
	if len(out) == 0 {
		return nil
	}
	return append(make([]SPO, 0, len(out)), out...)
}

// knownEntity reports whether subj, lower-cased, is the trimmed and
// lower-cased name of one of entities, looked up in known when that is set.
func knownEntity(entities []Mention, known map[string]bool, subj string) bool {
	if known != nil {
		return known[strings.ToLower(subj)]
	}
	for _, e := range entities {
		if textutil.SameLower(strings.TrimSpace(e.Name), subj) {
			return true
		}
	}
	return false
}

// Standardize implements entity standardisation (std.py equivalent): the
// canonical lower-cased, punctuation-free form with decorative tokens
// stripped, unifying cross-source surface variants of one entity.
func (s *Sim) Standardize(name string) string {
	s.usage.record(tokens(name)+6, tokens(name))
	return textutil.StandardizeName(name)
}

// ScoreRelevance scores query↔document relevance as content-token cosine with
// a small seeded jitter (LLM scoring is never perfectly calibrated).
func (s *Sim) ScoreRelevance(query, doc string) float64 {
	s.usage.record(tokens(query)+tokens(doc)+8, 4)
	base := textutil.CosineTokens(textutil.TokenizeContent(query), textutil.TokenizeContent(doc))
	jitter := (s.coin("rel|", query, "|", doc) - 0.5) * 0.04
	return clamp01(base + jitter)
}

// JudgeAuthority returns C_LLM(v): the expert model's raw authority estimate
// combining global influence (degree), local connection strength, entity-type
// information, multi-step path support and the model's world knowledge about
// the publishing source, per §III-D.2b / PTCA [33]. The source prior is what
// lets the Table V case study score ForumUser123 at 0.47 against the airline
// app's 0.89.
func (s *Sim) JudgeAuthority(ctx AuthorityContext) float64 {
	s.usage.record(48, 6)
	var deg float64
	if ctx.MaxDegree > 0 {
		deg = float64(ctx.Degree) / float64(ctx.MaxDegree)
	}
	score := 0.30*deg + 0.25*ctx.LocalStrength + 0.10*ctx.TypeWeight +
		0.15*ctx.PathSupport + 0.20*sourcePrior(ctx.Source)
	score += (s.coin("auth|", ctx.NodeID) - 0.5) * 0.1
	return clamp01(score)
}

// sourcePrior encodes the expert model's world knowledge about source
// classes: community content scores low, institutional feeds high, unknown
// sources neutral.
func sourcePrior(source string) float64 {
	for _, bad := range []string{"forum", "user", "blog", "post", "social", "scraper"} {
		if textutil.ContainsLower(source, bad) {
			return 0.2
		}
	}
	for _, good := range []string{"wiki", "official", "api", "feed", "airline", "airport", "gov"} {
		if textutil.ContainsLower(source, good) {
			return 0.8
		}
	}
	return 0.5
}

// GenerateAnswer synthesises the final answer values from evidence.
//
// Mechanics: evidence is grouped by normalised value; the conflict rate of
// the context is 1 − w(top)/w(total). The model hallucinates with probability
// BaseHallucination + ConflictSensitivity × conflict (deterministic seeded
// draw); a hallucinated answer is drawn from the minority (conflicting)
// groups — exactly the "misguidance and comprehension bias" failure mode of
// §I. Otherwise it faithfully returns every group within AcceptFraction of
// the leader, supporting multi-truth answers.
func (s *Sim) GenerateAnswer(query string, evidence []Evidence) []string {
	promptTok := tokens(query)
	for _, ev := range evidence {
		promptTok += tokens(ev.Value) + 2
	}
	if len(evidence) == 0 {
		s.usage.record(promptTok+16, 4)
		return nil
	}
	// Group by normal form in first-seen order: a linear scan over the groups
	// so far, comparing in place. A group keeps only its first surface form;
	// its normal form is read from that, streamed, and never built. Evidence
	// sets are a handful of values.
	var buf [8]answerGroup
	groups := buf[:0]
	var total float64
	for _, ev := range evidence {
		w := ev.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		gi := slices.IndexFunc(groups, func(g answerGroup) bool { return textutil.SameNormalized(ev.Value, g.repr) })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, answerGroup{repr: ev.Value})
		}
		g := &groups[gi]
		g.weight += w
		if !ev.Verified {
			g.unverified += w
		}
	}
	slices.SortStableFunc(groups, func(a, b answerGroup) int {
		if a.weight != b.weight {
			if a.weight > b.weight {
				return -1
			}
			return 1
		}
		return textutil.CompareNormalized(a.repr, b.repr)
	})
	top := groups[0]
	// Conflict is the share of *unverified* mass disagreeing with the leading
	// value: raw contradictory snippets mislead the model (§I), whereas
	// confidence-annotated verified statements — including legitimate
	// multi-truth answers — do not.
	var conflict float64
	for _, g := range groups[1:] {
		conflict += g.unverified
	}
	conflict /= total
	p := clamp01(s.cfg.BaseHallucination + s.cfg.ConflictSensitivity*conflict)
	if p > 0.95 {
		p = 0.95
	}
	// The draws are keyed by "gen|<query>|<k1>;<k2>;…" over the sorted group
	// keys, hashed piecewise and never built: seeded for the coins, plain
	// FNV-1a for the pick.
	var out []string
	if seeded := genKeyHash(textutil.SeededHash64(s.cfg.Seed), query, groups); textutil.Unit(seeded) < p && len(groups) > 1 {
		// Hallucinate: the model latches onto conflicting minority context.
		pick := 1 + int(textutil.HashAdd(genKeyHash(textutil.Hash64(""), query, groups), "|pick")%uint64(len(groups)-1))
		out = append(out, groups[pick].repr)
		// Occasionally it also blends in a fabricated variant.
		if textutil.Unit(textutil.HashAdd(seeded, "|blend")) < 0.25 {
			out = append(out, corruptValue(top.repr, s.cfg.Seed))
		}
	} else {
		threshold := s.cfg.AcceptFraction * top.weight
		n := 0
		for _, g := range groups {
			if g.weight >= threshold {
				n++
			}
		}
		if n > 0 {
			out = make([]string, 0, n)
		}
		for _, g := range groups {
			if g.weight >= threshold {
				out = append(out, g.repr)
			}
		}
	}
	compTok := 0
	for _, v := range out {
		compTok += tokens(v) + 1
	}
	s.usage.record(promptTok+16, compTok+4)
	return out
}

// answerGroup is one normal-form group of GenerateAnswer's evidence.
type answerGroup struct {
	repr               string // the first surface form seen
	weight, unverified float64
}

// genKeyHash continues the FNV-1a state h over "gen|<query>|" and the group
// keys — their normal forms — joined by ";".
func genKeyHash(h uint64, query string, groups []answerGroup) uint64 {
	h = textutil.HashAdd(h, "gen|")
	h = textutil.HashAdd(h, query)
	h = textutil.HashAdd(h, "|")
	for i, g := range groups {
		if i > 0 {
			h = textutil.HashAdd(h, ";")
		}
		h = textutil.HashAddNormalized(h, g.repr)
	}
	return h
}

// Usage implements Model.
func (s *Sim) Usage() Usage { return s.usage.snapshot() }

// VirtualLatency implements Model.
func (s *Sim) VirtualLatency() time.Duration { return s.cfg.Cost.Latency(s.usage.snapshot()) }

// ResetUsage implements Model.
func (s *Sim) ResetUsage() { s.usage.reset() }

// --- helpers ---

func tokens(s string) int { return textutil.CountTokens(s) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// nextSentence returns the first non-empty sentence of text at or after i —
// a run between '.', '\n' and ';' with its surrounding space trimmed — and
// the offset to continue from; sent is "" when none is left.
func nextSentence(text string, i int) (sent string, next int) {
	for i < len(text) {
		j := i
		for j < len(text) && text[j] != '.' && text[j] != '\n' && text[j] != ';' {
			j++
		}
		if sent, i = strings.TrimSpace(text[i:j]), j+1; sent != "" {
			return sent, i
		}
	}
	return "", i
}

// runCutset is the punctuation trimmed off each word of a capitalised run.
const runCutset = ",:;!?()\"'"

// nextCapitalRun returns the first maximal run of capitalised words
// ("Air China", "Beijing Capital International Airport") in sent at or after
// i, and the offset to continue from; run is "" when none is left. Words are
// strings.Fields' fields with runCutset trimmed off; a word that is empty
// after trimming or does not start with an ASCII capital ends a run. The run
// is its words joined by single spaces: a substring of sent when that is
// what separates them there, else built.
func nextCapitalRun(sent string, i int) (run string, next int) {
	start, end := -1, -1 // the run's first and last word's bounds in sent
	exact := true        // sent[start:end] is the run
	for {
		fs, fe := nextField(sent, i)
		if fs == len(sent) {
			break
		}
		field := strings.TrimLeft(sent[fs:fe], runCutset)
		ws := fe - len(field)
		word := strings.TrimRight(field, runCutset)
		if word == "" || word[0] < 'A' || word[0] > 'Z' {
			if start >= 0 {
				break
			}
			i = fe
			continue
		}
		i = fe
		if start < 0 {
			start = ws
		} else {
			exact = exact && ws == end+1 && sent[end] == ' '
		}
		end = ws + len(word)
	}
	if start < 0 {
		return "", len(sent)
	}
	if exact {
		return sent[start:end], i
	}
	var b strings.Builder
	b.Grow(end - start)
	for j := start; ; {
		fs, fe := nextField(sent[:end], j)
		if fs == end {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.Trim(sent[fs:fe], runCutset))
		j = fe
	}
	return b.String(), i
}

// nextField returns the bounds of the first field strings.Fields would split
// from s at or after i; start is len(s) when none is left.
func nextField(s string, i int) (start, end int) {
	for i < len(s) {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			break
		}
		i += w
	}
	return start, i
}

// corruptValue deterministically perturbs a value to fabricate a plausible
// but wrong variant (the fabrication half of hallucination).
func corruptValue(v string, seed uint64) string {
	toks := textutil.Tokenize(v)
	if len(toks) == 0 {
		return v + "-x"
	}
	i := int(textutil.Hash64(fmt.Sprintf("%d|corrupt|%s", seed, v)) % uint64(len(toks)))
	toks[i] = toks[i] + fmt.Sprintf("%d", textutil.Hash64(v)%97)
	return strings.Join(toks, " ")
}
