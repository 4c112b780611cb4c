package llm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"multirag/internal/textutil"
)

func newTestSim() *Sim { return NewSim(DefaultConfig()) }

func TestParseQueryAttributeLookup(t *testing.T) {
	s := newTestSim()
	lf := s.ParseQuery("What is the director of The Matrix?")
	if lf.Intent != "attribute_lookup" {
		t.Fatalf("intent = %q", lf.Intent)
	}
	if !reflect.DeepEqual(lf.Entities, []string{"The Matrix"}) {
		t.Fatalf("entities = %v", lf.Entities)
	}
	if !reflect.DeepEqual(lf.Relations, []string{"director"}) {
		t.Fatalf("relations = %v", lf.Relations)
	}
}

func TestParseQueryMultiHop(t *testing.T) {
	s := newTestSim()
	lf := s.ParseQuery("What is the birthplace of the director of Heat?")
	if lf.Intent != "multi_hop" {
		t.Fatalf("intent = %q", lf.Intent)
	}
	if !reflect.DeepEqual(lf.Entities, []string{"Heat"}) {
		t.Fatalf("entities = %v", lf.Entities)
	}
	if !reflect.DeepEqual(lf.Relations, []string{"director", "birthplace"}) {
		t.Fatalf("relations = %v (want hop order: first director, then birthplace)", lf.Relations)
	}
}

func TestParseQueryComparison(t *testing.T) {
	s := newTestSim()
	lf := s.ParseQuery("Do Heat and Inception have the same director?")
	if lf.Intent != "comparison" {
		t.Fatalf("intent = %q", lf.Intent)
	}
	if len(lf.Entities) != 2 || lf.Entities[0] != "Heat" || lf.Entities[1] != "Inception" {
		t.Fatalf("entities = %v", lf.Entities)
	}
}

func TestParseQueryMultiWordRelation(t *testing.T) {
	s := newTestSim()
	lf := s.ParseQuery("What is the departure time of Flight CA981?")
	if lf.Intent != "attribute_lookup" || len(lf.Relations) != 1 || lf.Relations[0] != "departure_time" {
		t.Fatalf("lf = %+v", lf)
	}
}

func TestExtractEntitiesFromGrammar(t *testing.T) {
	s := newTestSim()
	ms := s.ExtractEntities("The director of The Matrix is Lana Wachowski. According to imdb, the year of The Matrix is 1999.")
	names := map[string]string{}
	for _, m := range ms {
		names[m.Name] = m.Type
	}
	if names["The Matrix"] != "Entity" {
		t.Fatalf("missing subject entity: %v", ms)
	}
	if names["Lana Wachowski"] != "Value" {
		t.Fatalf("missing value mention: %v", ms)
	}
	if names["imdb"] != "Source" {
		t.Fatalf("missing source mention: %v", ms)
	}
}

func TestExtractTriples(t *testing.T) {
	s := NewSim(Config{Seed: 1, ExtractionNoise: 0}) // noise off for exactness
	text := "The director of Heat is Michael Mann. The year of Heat is 1995."
	ents := []Mention{{Name: "Heat", Type: "Entity"}}
	spos := s.ExtractTriples(text, ents)
	if len(spos) != 2 {
		t.Fatalf("got %d triples: %v", len(spos), spos)
	}
	if spos[0].Subject != "Heat" || spos[0].Predicate != "director" || spos[0].Object != "Michael Mann" {
		t.Fatalf("triple[0] = %+v", spos[0])
	}
}

func TestExtractTriplesRespectsEntityList(t *testing.T) {
	s := NewSim(Config{Seed: 1, ExtractionNoise: 0})
	text := "The director of Heat is Michael Mann."
	spos := s.ExtractTriples(text, []Mention{{Name: "Inception"}})
	if len(spos) != 0 {
		t.Fatalf("subject outside entity list must be skipped, got %v", spos)
	}
}

func TestExtractTriplesNoiseIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtractionNoise = 0.5
	a := NewSim(cfg)
	b := NewSim(cfg)
	text := "The director of Heat is Michael Mann. The year of Heat is 1995. The genre of Heat is crime."
	ents := []Mention{{Name: "Heat"}}
	if !reflect.DeepEqual(a.ExtractTriples(text, ents), b.ExtractTriples(text, ents)) {
		t.Fatal("same seed must give identical extractions")
	}
}

func TestStandardize(t *testing.T) {
	s := newTestSim()
	if got := s.Standardize("  The  MATRIX! "); got != "matrix" {
		t.Fatalf("Standardize = %q", got)
	}
	if s.Standardize("Silent Horizon, The") != s.Standardize("The Silent Horizon") {
		t.Fatal("std phase must unify title variants")
	}
	if s.Standardize("Flight CA981") != s.Standardize("CA981") {
		t.Fatal("std phase must unify flight variants")
	}
}

func TestJudgeAuthorityMonotoneInDegree(t *testing.T) {
	s := newTestSim()
	low := s.JudgeAuthority(AuthorityContext{Degree: 1, MaxDegree: 100, LocalStrength: 0.5, TypeWeight: 0.5, PathSupport: 0.5})
	high := s.JudgeAuthority(AuthorityContext{Degree: 100, MaxDegree: 100, LocalStrength: 0.5, TypeWeight: 0.5, PathSupport: 0.5})
	if high <= low {
		t.Fatalf("authority must grow with degree: %v vs %v", low, high)
	}
}

// TestCoinMatchesFormattedKey pins every seeded draw to the fmt-built key it
// used to hash, so no seeded decision moves: same float64 bits, key passed
// whole or in the parts the call sites use.
func TestCoinMatchesFormattedKey(t *testing.T) {
	for _, seed := range []uint64{0, 1, 3, 7, 42, 1000, math.MaxUint64} {
		s := NewSim(Config{Seed: seed})
		for _, parts := range [][]string{
			{""},
			{"auth|", "t000001"},
			{"extract|", "The director of Heat is Michael Mann"},
			{"rel|", "director of Heat", "|", "The director of Heat is Michael Mann"},
			{"gen|What is the status of CA981?|delayed;on time"},
			{"gen|q|x;y", "|blend"},
			{"x\xffy|İ"},
		} {
			want := math.Float64bits(textutil.Hash01(fmt.Sprintf("%d|%s", seed, strings.Join(parts, ""))))
			if got := math.Float64bits(s.coin(parts...)); got != want {
				t.Fatalf("seed %d, key %q: coin bits %#x, fmt form %#x", seed, parts, got, want)
			}
		}
	}
}

// TestJudgeAuthorityAllocFree: MCC asks the expert once per member of every
// node-scored group, so the judgement itself must not allocate — whatever
// the source name's case.
func TestJudgeAuthorityAllocFree(t *testing.T) {
	s := newTestSim()
	for _, source := range []string{"mov-csv-2", "ForumUser123", "AirChina Official API"} {
		ctx := AuthorityContext{Node: 122, Source: source, Degree: 7, MaxDegree: 40,
			LocalStrength: 0.9, TypeWeight: 0.5, PathSupport: 0.25}
		if allocs := testing.AllocsPerRun(100, func() { s.JudgeAuthority(ctx) }); allocs != 0 {
			t.Fatalf("JudgeAuthority(source %q): %.0f allocs per call, want 0", source, allocs)
		}
	}
}

// TestSourcePriorIgnoresCase: the source prior matches its keywords in the
// lower-cased source name, as if strings.ToLower had built it.
func TestSourcePriorIgnoresCase(t *testing.T) {
	for _, c := range []struct {
		source string
		prior  float64
	}{
		{"mov-csv-2", 0.5},
		{"ForumUser123", 0.2},
		{"AirChina Official API", 0.8},
		{"GOV-FEED", 0.8},
		{"Wi\u212ai", 0.8}, // the Kelvin sign lower-cases to k
	} {
		if got := sourcePrior(c.source); got != c.prior {
			t.Errorf("sourcePrior(%q) = %v, want %v", c.source, got, c.prior)
		}
	}
}

// TestParseQueryStripsQualifiers: temporal qualifiers go in lower and title
// case, and the precomputed list is exactly the strings.Title forms the
// parser used to build per query.
func TestParseQueryStripsQualifiers(t *testing.T) {
	var want []string
	for _, q := range []string{"real-time ", "real time ", "current ", "latest "} {
		want = append(want, q, strings.Title(q))
	}
	if !reflect.DeepEqual(qualifiers, want) {
		t.Fatalf("qualifiers = %q, want %q", qualifiers, want)
	}
	s := newTestSim()
	for _, q := range []string{
		"What is the Real-Time status of Flight CA981?",
		"What is the real time status of Flight CA981?",
		"What is the Current status of Flight CA981?",
		"What is the Latest status of Flight CA981?",
		"What is the latest status of Flight CA981?",
	} {
		lf := s.ParseQuery(q)
		if lf.Intent != "attribute_lookup" || !reflect.DeepEqual(lf.Relations, []string{"status"}) ||
			!reflect.DeepEqual(lf.Entities, []string{"Flight CA981"}) {
			t.Errorf("ParseQuery(%q) = %+v", q, lf)
		}
	}
}

// oracleGenerateAnswer is GenerateAnswer as it was before the group slice:
// a map from normal form to *group, sort.SliceStable over the keys, and the
// "gen|…" key built as a string for every draw. It charges s's usage exactly
// as GenerateAnswer does.
func oracleGenerateAnswer(s *Sim, query string, evidence []Evidence) []string {
	promptTok := tokens(query)
	for _, ev := range evidence {
		promptTok += tokens(ev.Value) + 2
	}
	if len(evidence) == 0 {
		s.usage.record(promptTok+16, 4)
		return nil
	}
	type group struct {
		repr       string
		weight     float64
		unverified float64
	}
	byNorm := map[string]*group{}
	var order []string
	var total float64
	for _, ev := range evidence {
		w := ev.Weight
		if w <= 0 {
			w = 1
		}
		total += w
		key := strings.Join(textutil.Tokenize(ev.Value), " ")
		g, ok := byNorm[key]
		if !ok {
			g = &group{repr: ev.Value}
			byNorm[key] = g
			order = append(order, key)
		}
		g.weight += w
		if !ev.Verified {
			g.unverified += w
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		gi, gj := byNorm[order[i]], byNorm[order[j]]
		if gi.weight != gj.weight {
			return gi.weight > gj.weight
		}
		return order[i] < order[j]
	})
	top := byNorm[order[0]]
	var conflict float64
	for _, key := range order[1:] {
		conflict += byNorm[key].unverified
	}
	conflict /= total
	p := clamp01(s.cfg.BaseHallucination + s.cfg.ConflictSensitivity*conflict)
	if p > 0.95 {
		p = 0.95
	}
	key := "gen|" + query + "|" + strings.Join(order, ";")
	coin := func(k string) float64 { return textutil.Hash01(fmt.Sprintf("%d|%s", s.cfg.Seed, k)) }
	var out []string
	if coin(key) < p && len(order) > 1 {
		pick := 1 + int(textutil.Hash64(key+"|pick")%uint64(len(order)-1))
		out = append(out, byNorm[order[pick]].repr)
		if coin(key+"|blend") < 0.25 {
			out = append(out, corruptValue(top.repr, s.cfg.Seed))
		}
	} else {
		threshold := s.cfg.AcceptFraction * top.weight
		for _, k := range order {
			if byNorm[k].weight >= threshold {
				out = append(out, byNorm[k].repr)
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

// TestGenerateAnswerMatchesMapOracle draws seeded evidence sets of 1–12 items
// — spelling variants of a few values (case, punctuation, spacing), weight
// ties, zero and negative weights, mixed Verified — and requires the answer
// and the usage charged to equal the map-based oracle's, across seeds and
// hallucination settings that exercise both the faithful and the
// hallucinating branch.
func TestGenerateAnswerMatchesMapOracle(t *testing.T) {
	spellings := [][]string{
		{"Delayed", "delayed", "DELAYED!", " delayed "},
		{"On Time", "on-time", "on time", "ON  TIME"},
		{"Michael Mann", "michael mann", "Mann, Michael"},
		{"Lana Wachowski", "lana wachowski"},
		{"1999", "1999."},
		{"---", ""},
		{"İstanbul", "istanbul"},
	}
	weights := []float64{0, -1, 0.25, 0.5, 0.5, 1, 1, 2, 3.75}
	rng := rand.New(rand.NewSource(21))
	const cases = 4000
	hallucinated := 0
	for i := 0; i < cases; i++ {
		cfg := Config{Seed: uint64(rng.Intn(5)), BaseHallucination: []float64{0, 0.03, 0.5}[rng.Intn(3)],
			ConflictSensitivity: []float64{0.0001, 0.9, 1}[rng.Intn(3)], AcceptFraction: []float64{0.5, 1, 1.5}[rng.Intn(3)]}
		got, want := NewSim(cfg), NewSim(cfg)
		ev := make([]Evidence, 1+rng.Intn(12))
		for j := range ev {
			sp := spellings[rng.Intn(len(spellings))]
			ev[j] = Evidence{Value: sp[rng.Intn(len(sp))], Weight: weights[rng.Intn(len(weights))],
				Source: fmt.Sprint("s", j), Verified: rng.Intn(2) == 0}
		}
		q := fmt.Sprintf("What is the status of CA%d?", rng.Intn(50))
		a, b := got.GenerateAnswer(q, ev), oracleGenerateAnswer(want, q, ev)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("case %d (%+v, %q, %+v): GenerateAnswer = %q, oracle %q", i, cfg, q, ev, a, b)
		}
		if got.Usage() != want.Usage() {
			t.Fatalf("case %d: usage %+v, oracle %+v", i, got.Usage(), want.Usage())
		}
		faithful := cfg
		faithful.BaseHallucination, faithful.ConflictSensitivity = 0, 1e-300
		if !reflect.DeepEqual(a, oracleGenerateAnswer(NewSim(faithful), q, ev)) {
			hallucinated++
		}
	}
	if hallucinated == 0 || hallucinated == cases {
		t.Fatalf("%d of %d cases hallucinated: only one branch exercised", hallucinated, cases)
	}
}

var answerSink []string

// answerEvidence returns the micro-benchmark's evidence sets: three short
// graph values with a spelling variant, and five ~1 KB chunk texts like the
// fallback path's.
func answerEvidence() (short, chunks []Evidence) {
	short = []Evidence{
		{Value: "Delayed", Weight: 0.9, Source: "airline-api", Verified: true},
		{Value: "delayed", Weight: 0.7, Source: "airport-feed", Verified: true},
		{Value: "On Time", Weight: 0.4, Source: "ForumUser123"},
	}
	for i := 0; i < 5; i++ {
		chunks = append(chunks, Evidence{
			Value:  strings.Repeat(fmt.Sprintf("The status of Flight CA98%d is Delayed, according to AirChina Official API. ", i), 14),
			Weight: 0.8 - 0.1*float64(i), Source: "kb-text",
		})
	}
	return short, chunks
}

// TestGenerateAnswerAllocCeiling pins GenerateAnswer's allocations to the
// returned slice: no map, no per-group pointer, no key string, no sort
// swapper, and no normal form — groups compare, sort and hash theirs
// streamed from the first surface form.
func TestGenerateAnswerAllocCeiling(t *testing.T) {
	s := NewSim(Config{Seed: 1, BaseHallucination: 0, ConflictSensitivity: 0.0001})
	short, chunks := answerEvidence()
	normal := []Evidence{{Value: "delayed", Weight: 2}, {Value: "Delayed", Weight: 1}, {Value: "on time", Weight: 0.5}}
	for _, c := range []struct {
		name string
		ev   []Evidence
		max  float64
	}{
		{"normal", normal, 1},
		{"short", short, 1},
		{"chunks", chunks, 1},
	} {
		if got := testing.AllocsPerRun(50, func() { answerSink = s.GenerateAnswer("What is the status of CA981?", c.ev) }); got > c.max {
			t.Errorf("%s: %.0f allocs per GenerateAnswer, ceiling %.0f", c.name, got, c.max)
		}
	}
}

// BenchmarkGenerateAnswer times answer generation over three short graph
// values and over five ~1 KB chunk texts, with hallucination off so every
// iteration takes the faithful branch the alloc ceiling pins.
func BenchmarkGenerateAnswer(b *testing.B) {
	s := NewSim(Config{Seed: 1, BaseHallucination: 0, ConflictSensitivity: 0.0001})
	short, chunks := answerEvidence()
	for _, c := range []struct {
		name string
		ev   []Evidence
	}{{"short", short}, {"chunks", chunks}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				answerSink = s.GenerateAnswer("What is the status of CA981?", c.ev)
			}
		})
	}
}

func TestGenerateAnswerFaithfulOnConsensus(t *testing.T) {
	s := newTestSim()
	ev := []Evidence{
		{Value: "Michael Mann", Weight: 5, Source: "a"},
		{Value: "michael mann", Weight: 4, Source: "b"},
	}
	got := s.GenerateAnswer("What is the director of Heat?", ev)
	if len(got) != 1 || strings.ToLower(got[0]) != "michael mann" {
		t.Fatalf("consensus answer = %v", got)
	}
}

func TestGenerateAnswerMultiTruth(t *testing.T) {
	s := NewSim(Config{Seed: 1, BaseHallucination: 0, ConflictSensitivity: 0.0001})
	ev := []Evidence{
		{Value: "Lana Wachowski", Weight: 5},
		{Value: "Lilly Wachowski", Weight: 5},
	}
	got := s.GenerateAnswer("Who directed The Matrix?", ev)
	if len(got) != 2 {
		t.Fatalf("multi-truth answer = %v, want both directors", got)
	}
}

func TestGenerateAnswerHallucinatesUnderConflict(t *testing.T) {
	// With maximal conflict sensitivity and highly conflicting context, a
	// large fraction of queries must be answered from minority evidence.
	s := NewSim(Config{Seed: 7, BaseHallucination: 0, ConflictSensitivity: 1})
	wrong := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ev := []Evidence{
			{Value: "right", Weight: 1.2},
			{Value: "wrong-a", Weight: 1},
			{Value: "wrong-b", Weight: 1},
		}
		got := s.GenerateAnswer(fmt.Sprintf("q%d", i), ev)
		if len(got) == 0 || got[0] != "right" {
			wrong++
		}
	}
	if wrong < trials/3 {
		t.Fatalf("only %d/%d hallucinations under maximal conflict; model is not conflict-sensitive", wrong, trials)
	}
}

func TestGenerateAnswerCleanContextMostlyFaithful(t *testing.T) {
	s := NewSim(Config{Seed: 7, BaseHallucination: 0.03, ConflictSensitivity: 0.55})
	wrong := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		ev := []Evidence{{Value: "right", Weight: 3}}
		got := s.GenerateAnswer(fmt.Sprintf("q%d", i), ev)
		if len(got) != 1 || got[0] != "right" {
			wrong++
		}
	}
	if wrong > trials/10 {
		t.Fatalf("%d/%d wrong answers with clean context; base hallucination too high", wrong, trials)
	}
}

func TestGenerateAnswerEmptyEvidence(t *testing.T) {
	s := newTestSim()
	if got := s.GenerateAnswer("anything", nil); got != nil {
		t.Fatalf("no evidence must yield abstention, got %v", got)
	}
}

func TestUsageAccounting(t *testing.T) {
	s := newTestSim()
	before := s.Usage()
	s.ParseQuery("What is the director of Heat?")
	s.GenerateAnswer("q", []Evidence{{Value: "v", Weight: 1}})
	after := s.Usage()
	if after.Calls != before.Calls+2 {
		t.Fatalf("calls = %d, want %d", after.Calls, before.Calls+2)
	}
	if after.PromptTokens <= before.PromptTokens {
		t.Fatal("prompt tokens must accumulate")
	}
	if s.VirtualLatency() <= 0 {
		t.Fatal("virtual latency must be positive after calls")
	}
	s.ResetUsage()
	if s.Usage() != (Usage{}) {
		t.Fatal("ResetUsage must clear accounting")
	}
}

func TestCostModelLatency(t *testing.T) {
	u := Usage{Calls: 2, PromptTokens: 100, CompletionTokens: 10}
	c := DefaultCostModel
	want := 2*c.PerCall + 100*c.PerPrompt + 10*c.PerOutput
	if got := c.Latency(u); got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	cfg := DefaultConfig()
	a, b := NewSim(cfg), NewSim(cfg)
	ev := []Evidence{{Value: "x", Weight: 1}, {Value: "y", Weight: 1}}
	for i := 0; i < 50; i++ {
		q := fmt.Sprintf("query %d", i)
		if !reflect.DeepEqual(a.GenerateAnswer(q, ev), b.GenerateAnswer(q, ev)) {
			t.Fatalf("non-deterministic answer for %q", q)
		}
	}
}
