package bench

import (
	"slices"
	"testing"

	"multirag/internal/confidence"
	"multirag/internal/core"
	"multirag/internal/kg"
	"multirag/internal/linegraph"
	"multirag/internal/llm"
)

// TestCaseStudyGraphLevelTie pins how the Table V case study (seed 1) passes
// MCC's graph level. The (CA981, status) subgraph is the query's only
// candidate, and its C(G) is exactly GraphThreshold, 0.5. The >= comparison
// sends it down the fast path, which trusts the top two members of the
// majority cluster by weight, airline-app's and airport-api's "Delayed", and
// rejects the other two: forum-user's "On time" and weather-feed's correct
// "Delayed". A change to the comparison, the weights or the threshold shows
// up here; nothing is tuned to make it pass.
func TestCaseStudyGraphLevelTie(t *testing.T) {
	s := core.NewSystem(core.Config{LLM: llm.Config{Seed: 1, ExtractionNoise: 0}})
	if _, err := s.Ingest(caseStudyFiles()); err != nil {
		t.Fatal(err)
	}
	sg, subj := s.SG(), kg.CanonicalID("CA981")
	node, ok := sg.Lookup(subj, "status")
	if !ok {
		t.Fatal("no homologous subgraph for (CA981, status)")
	}
	if nested := sg.NestedCandidates(subj, "status"); len(nested) != 0 {
		t.Fatalf("%d nested status candidates, want none: the query has one candidate", len(nested))
	}
	res, _ := s.MCC().RunDeferred(sg, []*linegraph.HomologousNode{node}, confidence.Options{})
	if len(res.Assessments) != 1 {
		t.Fatalf("%d assessments, want 1", len(res.Assessments))
	}
	a := res.Assessments[0]
	if threshold := s.MCC().Config().GraphThreshold; a.GraphConfidence != 0.5 || threshold != 0.5 {
		t.Fatalf("C(G) = %x, threshold %x: want both exactly 0x1p-1", a.GraphConfidence, threshold)
	}
	if !a.FastPath || a.EliminatedByGraph {
		t.Fatalf("route: fast path %v, eliminated %v; want the fast path at the tie", a.FastPath, a.EliminatedByGraph)
	}
	var trusted, rejected []string
	for _, tn := range a.Trusted {
		if tn.Confidence != 0.5 {
			t.Errorf("trusted %s from %s at confidence %v, want 0.5", tn.Triple.Object, tn.Triple.Source, tn.Confidence)
		}
		trusted = append(trusted, tn.Triple.Source+"="+tn.Triple.Object)
	}
	for _, tr := range a.Rejected {
		rejected = append(rejected, tr.Source+"="+tr.Object)
	}
	slices.Sort(trusted)
	slices.Sort(rejected)
	if want := []string{"airline-app=Delayed", "airport-api=Delayed"}; !slices.Equal(trusted, want) {
		t.Fatalf("trusted %v, want %v", trusted, want)
	}
	if want := []string{"forum-user=On time", "weather-feed=Delayed"}; !slices.Equal(rejected, want) {
		t.Fatalf("rejected %v, want %v", rejected, want)
	}

	// The query path reaches the same verdict.
	ans := s.Query("What is the real-time status of CA981?")
	if !slices.Equal(ans.GraphConfidences, []float64{0.5}) || ans.RejectedCount != 2 || len(ans.Trusted) != 2 {
		t.Fatalf("answer: C(G) %v, %d trusted, %d rejected; want [0.5], 2, 2", ans.GraphConfidences, len(ans.Trusted), ans.RejectedCount)
	}
}
