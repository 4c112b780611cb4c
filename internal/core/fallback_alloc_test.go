package core

import "testing"

// fallbackQuery is free text the grammar cannot parse, the query-fallback
// workload's template over a case-study entity.
const fallbackQuery = "Anything interesting regarding Flight CA981 lately"

// TestFallbackQueryAllocCeiling bounds the objects one chunk-fallback query
// allocates in the engine, with its embedding cached, on the case-study
// corpus. It reads 4 (x86-64, Go 1.24): the logic form's entity slice, the
// scan's hits, the evidence slice sized once, and the answer values. It was
// 24 while NER built a map of lowered keys and a slice per sentence and
// run, the evidence slice grew by append, and GenerateAnswer built a normal
// form per chunk text.
func TestFallbackQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	const ceiling = 6
	s := newCaseStudySystem(t, Config{})
	ans := s.Query(fallbackQuery)
	if ans.LogicForm.Intent != "unknown" || !ans.Found {
		t.Fatalf("fallback query answered %+v", ans)
	}
	if got := testing.AllocsPerRun(100, func() { s.Query(fallbackQuery) }); got > ceiling {
		t.Fatalf("%.0f allocs per fallback query, ceiling %d", got, ceiling)
	}
}

// BenchmarkAnswerFallback is one chunk-fallback query with its embedding
// cached: logic-form generation's NER, the exact scan over the case-study
// chunks, and answer generation over their texts.
func BenchmarkAnswerFallback(b *testing.B) {
	s := NewSystem(Config{})
	if _, err := s.Ingest(caseStudyFiles()); err != nil {
		b.Fatal(err)
	}
	s.Query(fallbackQuery)
	b.ReportAllocs()
	for b.Loop() {
		s.Query(fallbackQuery)
	}
}
