package confidence

import (
	"reflect"
	"testing"

	"multirag/internal/kg"
	"multirag/internal/linegraph"
)

// Prh returns the historical credibility Prh(D) of a source.
func (hs *HistoryStore) Prh(source string) float64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.prh0(hs.get(source))
}

// Empty reports whether the delta carries no credits.
func (d *HistoryDelta) Empty() bool { return d == nil || len(d.entries) == 0 }

// TestRunDeferredFreezesHistoryAcrossCandidates pins the deferred contract:
// every candidate in one RunDeferred call is scored against the call-time
// history, so splitting the candidates across separate deferred calls (the
// parallel-arm shape) and applying the deltas afterwards yields the same
// scores in any split.
func TestRunDeferredFreezesHistoryAcrossCandidates(t *testing.T) {
	g := kg.New()
	g.AddEntity("CA981", "Flight", "flights")
	g.AddEntity("MU588", "Flight", "flights")
	add := func(subj, pred, obj, src string, w float64) {
		t.Helper()
		if _, err := g.AddTriple(kg.Fact{
			Subject: kg.CanonicalID(subj), Predicate: pred, Object: obj,
			Source: src, Domain: "flights", Weight: w,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Both nodes share sources, so crediting one before scoring the other
	// would couple their scores; both conflict, so the node-level
	// (history-reading) stage runs for each.
	add("CA981", "status", "Delayed", "airline-app", 0.9)
	add("CA981", "status", "On time", "forum-user", 0.4)
	add("MU588", "status", "Boarding", "airline-app", 0.85)
	add("MU588", "status", "Cancelled", "forum-user", 0.45)
	sg := linegraph.Build(g)
	n1, _ := sg.Lookup(kg.CanonicalID("CA981"), "status")
	n2, _ := sg.Lookup(kg.CanonicalID("MU588"), "status")
	cfg := Config{Alpha: 0.5, Beta: 0.5, NodeThreshold: 0.7, GraphThreshold: 0.99}

	joint := newMCC(cfg)
	split := newMCC(cfg)
	wantRes, wantDelta := joint.RunDeferred(sg, []*linegraph.HomologousNode{n1, n2}, Options{})
	joint.History().Apply(wantDelta)

	r1, d1 := split.RunDeferred(sg, []*linegraph.HomologousNode{n1}, Options{})
	r2, d2 := split.RunDeferred(sg, []*linegraph.HomologousNode{n2}, Options{})
	split.History().Apply(d1)
	split.History().Apply(d2)

	got := append(append([]TrustedNode(nil), r1.SVs...), r2.SVs...)
	if !reflect.DeepEqual(got, wantRes.SVs) {
		t.Fatalf("split deferred runs diverge from joint run:\n got %+v\nwant %+v", got, wantRes.SVs)
	}
	for _, src := range []string{"airline-app", "forum-user"} {
		if a, b := joint.History().Prh(src), split.History().Prh(src); a != b {
			t.Fatalf("history diverges for %s: %v vs %v", src, a, b)
		}
	}
}

// TestHistoryDeltaApplyNil: nil and empty deltas are no-ops.
func TestHistoryDeltaApplyNil(t *testing.T) {
	hs := NewHistoryStore()
	before := hs.Prh("src")
	hs.Apply(nil)
	hs.Apply(&HistoryDelta{})
	if got := hs.Prh("src"); got != before {
		t.Fatalf("no-op apply changed history: %v vs %v", got, before)
	}
	if !(&HistoryDelta{}).Empty() || !(*HistoryDelta)(nil).Empty() {
		t.Fatal("empty deltas must report Empty")
	}
}
