package llm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

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

func TestScoreRelevanceBounds(t *testing.T) {
	s := newTestSim()
	f := func(q, d string) bool {
		r := s.ScoreRelevance(q, d)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	hi := s.ScoreRelevance("director of Heat", "The director of Heat is Michael Mann")
	lo := s.ScoreRelevance("director of Heat", "stock price of ACME rose")
	if hi <= lo {
		t.Fatalf("relevant doc must outscore irrelevant: %v vs %v", hi, lo)
	}
}

func TestJudgeAuthorityMonotoneInDegree(t *testing.T) {
	s := newTestSim()
	low := s.JudgeAuthority(AuthorityContext{NodeID: "n", Degree: 1, MaxDegree: 100, LocalStrength: 0.5, TypeWeight: 0.5, PathSupport: 0.5})
	high := s.JudgeAuthority(AuthorityContext{NodeID: "n", Degree: 100, MaxDegree: 100, LocalStrength: 0.5, TypeWeight: 0.5, PathSupport: 0.5})
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
// node-scored group, so the judgement itself must not allocate.
func TestJudgeAuthorityAllocFree(t *testing.T) {
	s := newTestSim()
	ctx := AuthorityContext{NodeID: "t000123", Source: "mov-csv-2", Degree: 7, MaxDegree: 40,
		LocalStrength: 0.9, TypeWeight: 0.5, PathSupport: 0.25}
	if allocs := testing.AllocsPerRun(100, func() { s.JudgeAuthority(ctx) }); allocs != 0 {
		t.Fatalf("JudgeAuthority: %.0f allocs per call, want 0", allocs)
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
