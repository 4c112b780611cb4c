package llm

import "testing"

// allocQueries are one query per grammar and the benchmark's free-text
// template, with the objects ParseQuery may allocate for each: the logic
// form's one backing array, plus one relation name where the relation is
// not already one ("departure time" → "departure_time").
var allocQueries = []struct {
	name, q string
	ceiling float64
}{
	{"attribute", "What is the status of Flight CA981?", 1},
	{"attribute-two-words", "What is the departure time of Flight CA981?", 2},
	{"status", "What is the realtime\nstatus of CA981?", 1},
	{"multi-hop", "What is the birthplace of the director of Heat?", 1},
	{"comparison", "Do Heat and Inception have the same director?", 1},
	{"free-text", "Anything interesting regarding Flight CA981 lately", 1},
}

// extractChunk is one chunk as the retrieval layer cuts them (at most 64
// tokens, whole sentences) from a text file of the sentence grammar, the
// input of the chunk fallback's extraction.
const extractChunk = "The status of Flight CA981 is Delayed. The departure gate of Flight CA981 is B12. " +
	"The operator of Flight CA981 is Air China. The origin of Flight CA981 is Beijing. " +
	"The destination of Flight CA981 is Frankfurt. The aircraft of Flight CA981 is Boeing 747. " +
	"According to AirChina Official API, the status of Flight CA981 is Delayed. The terminal of Flight CA981 is T3."

// TestParseQueryAllocCeiling pins ParseQuery to its result: one array for a
// grammar's captures (and a built relation name when the relation has more
// than one word), one entity slice for free text — no match slices, no
// mention list, no lowered keys. With the regexps it was 5–6 per grammar
// and 15 for free text.
func TestParseQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	s := newTestSim()
	for _, c := range allocQueries {
		if got := testing.AllocsPerRun(100, func() { s.ParseQuery(c.q) }); got > c.ceiling {
			t.Errorf("%s: %.0f allocs per ParseQuery(%q), ceiling %.0f", c.name, got, c.q, c.ceiling)
		}
	}
}

// TestExtractChunkAllocCeiling pins NER plus SPO extraction over one chunk
// to their results: the mention slice, the triple slice, and the one
// predicate that is not already a relation name ("departure gate"). It was
// 100 while each sentence went through FindStringSubmatch, NER kept a map of
// lowered names and every sentence, word and run was a slice.
func TestExtractChunkAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	const ceiling = 4
	s := newTestSim()
	if got := testing.AllocsPerRun(50, func() { s.ExtractTriples(extractChunk, s.ExtractEntities(extractChunk)) }); got > ceiling {
		t.Errorf("%.0f allocs per ExtractEntities+ExtractTriples over one chunk, ceiling %d", got, ceiling)
	}
}

var (
	lfSink  LogicForm
	spoSink []SPO
)

// BenchmarkParseQuery times logic-form generation on one query per grammar
// and on free text, the query-fallback workload's template.
func BenchmarkParseQuery(b *testing.B) {
	s := newTestSim()
	for _, c := range allocQueries {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				lfSink = s.ParseQuery(c.q)
			}
		})
	}
}

// BenchmarkExtractChunk times NER plus SPO extraction over one ~1 KB chunk.
func BenchmarkExtractChunk(b *testing.B) {
	s := newTestSim()
	text := extractChunk
	b.ReportAllocs()
	for b.Loop() {
		spoSink = s.ExtractTriples(text, s.ExtractEntities(text))
	}
}
