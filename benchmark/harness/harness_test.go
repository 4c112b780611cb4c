package harness

import (
	"errors"
	"testing"
	"time"

	"multirag/benchmark/workload"
)

func TestPercentileNearestRankAndGuard(t *testing.T) {
	d := make([]time.Duration, 200)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	if got, err := Percentile(d, 0.95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 ms = %v, %v; want 190 (rank 190, 10 beyond)", got, err)
	}
	if got, err := Percentile(d, 0.50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 ms = %v, %v; want 100", got, err)
	}
	if _, err := Percentile(d[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestScorerChecks(t *testing.T) {
	q := workload.GoldQuery{Text: "What is the gate of CA981?", Gold: []string{"B7"}}
	sc := newScorer(true)
	if err := sc.checkGraph(q, Answer{Values: []string{"B7"}, Found: true}); err != nil {
		t.Fatal(err)
	}
	if err := sc.checkGraph(q, Answer{Values: []string{"C1"}, Found: true}); err != nil {
		t.Fatalf("a wrong graph value is scored, not failed: %v", err)
	}
	if got := sc.f1.Value(); got != 0.5 {
		t.Errorf("mean F1 of one hit and one miss = %v", got)
	}
	if err := sc.checkGraph(q, Answer{Degraded: true}); !errors.Is(err, errDegraded) {
		t.Errorf("degraded graph answer: %v", err)
	}

	const text = "Anything interesting regarding CA981 lately"
	if err := sc.checkFallback(text, Answer{Values: []string{"a"}, Found: true}); err != nil {
		t.Fatal(err)
	}
	if err := sc.checkFallback(text, Answer{Values: []string{"a"}, Found: true}); err != nil {
		t.Errorf("same values again: %v", err)
	}
	if err := sc.checkFallback(text, Answer{Values: []string{"b"}, Found: true}); err == nil {
		t.Error("read-only workload: changed fallback values must fail")
	}
	if err := sc.checkFallback("other", Answer{}); err == nil {
		t.Error("read-only workload: a fallback answer that is not Found must fail")
	}
	rw := newScorer(false)
	if err := rw.checkFallback(text, Answer{}); err != nil {
		t.Errorf("mixed-rw checks only status and Degraded: %v", err)
	}
	if err := rw.checkFallback(text, Answer{Degraded: true}); !errors.Is(err, errDegraded) {
		t.Errorf("degraded fallback answer: %v", err)
	}
}
