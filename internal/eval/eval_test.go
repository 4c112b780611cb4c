package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPRF1Exact(t *testing.T) {
	p, r, f1 := PRF1([]string{"Michael Mann"}, []string{"michael mann"})
	if p != 1 || r != 1 || f1 != 1 {
		t.Fatalf("exact match: %v %v %v", p, r, f1)
	}
}

func TestPRF1Partial(t *testing.T) {
	// Predicted one of two gold values plus one wrong value.
	p, r, f1 := PRF1([]string{"Lana Wachowski", "Someone Wrong"}, []string{"Lana Wachowski", "Lilly Wachowski"})
	if math.Abs(p-0.5) > 1e-12 || math.Abs(r-0.5) > 1e-12 || math.Abs(f1-0.5) > 1e-12 {
		t.Fatalf("partial: %v %v %v", p, r, f1)
	}
}

func TestPRF1Empty(t *testing.T) {
	if _, _, f1 := PRF1(nil, []string{"x"}); f1 != 0 {
		t.Fatal("abstention on answerable query must score 0")
	}
	if _, _, f1 := PRF1(nil, nil); f1 != 1 {
		t.Fatal("empty vs empty must score 1")
	}
}

func TestPRF1DedupNormalisation(t *testing.T) {
	p, _, _ := PRF1([]string{"X", "x", "X."}, []string{"x"})
	if p != 1 {
		t.Fatalf("duplicate predictions must collapse: p = %v", p)
	}
}

func TestPRF1BoundsProperty(t *testing.T) {
	f := func(pred, gold []string) bool {
		p, r, f1 := PRF1(pred, gold)
		inRange := func(x float64) bool { return x >= 0 && x <= 1 }
		if !inRange(p) || !inRange(r) || !inRange(f1) {
			return false
		}
		// F1 is bounded by min and max of p,r … actually by their harmonic
		// mean properties: f1 <= max(p,r) and f1 >= min(p,r) only when both
		// positive; just check f1 <= (p+r)/2 + 1e-9 (harmonic ≤ arithmetic).
		return f1 <= (p+r)/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecallAtK(t *testing.T) {
	ranked := []string{"a", "b", "c", "d", "e", "f"}
	if got := RecallAtK(ranked, []string{"a", "e"}, 5); got != 1 {
		t.Fatalf("recall@5 = %v", got)
	}
	if got := RecallAtK(ranked, []string{"a", "f"}, 5); got != 0.5 {
		t.Fatalf("recall@5 = %v", got)
	}
	if got := RecallAtK(nil, []string{"x"}, 5); got != 0 {
		t.Fatalf("empty ranking recall = %v", got)
	}
	if got := RecallAtK(ranked, nil, 5); got != 1 {
		t.Fatalf("no gold ⇒ recall 1, got %v", got)
	}
	// Duplicate retrieved items must not double count.
	if got := RecallAtK([]string{"a", "a"}, []string{"a", "b"}, 2); got != 0.5 {
		t.Fatalf("duplicate handling: %v", got)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if math.Abs(m.Value()-5) > 1e-12 {
		t.Fatalf("mean = %v", m.Value())
	}
	if m.N() != 8 {
		t.Fatalf("n = %d", m.N())
	}
	var empty Mean
	if empty.Value() != 0 {
		t.Fatal("empty accumulator must read 0")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Total() != 0 {
		t.Fatal("a zero Clock must read 0")
	}
	c.AddVirtual(2 * time.Second)
	c.ChargeHistoryScans(100)
	c.ChargeClaimFetches(10)
	want := 2*time.Second + 100*PerHistoryScan + 10*PerClaimFetch
	if c.Total() != want {
		t.Fatalf("total = %v, want the priced sum %v", c.Total(), want)
	}
	if c.Seconds() != want.Seconds() {
		t.Fatalf("seconds = %v, want %v", c.Seconds(), want.Seconds())
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"method", "f1"}}
	tb.AddRow("MCC", "54.8")
	tb.AddRow("TF") // short row padded
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "MCC") || !strings.Contains(out, "54.8") {
		t.Fatalf("render lost cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		Title:   "Fig",
		XLabel:  "mask",
		XTicks:  []string{"0", "30", "50", "70"},
		Percent: true,
		Series: []Series{
			{Name: "MultiRAG", Ys: []float64{66.8, 64.0, 62.1, 60.0}},
			{Name: "ChatKBQA", Ys: []float64{59.1, 57.0, 55.2, 53.0}},
		},
	}
	var sb strings.Builder
	f.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "MultiRAG") || !strings.Contains(out, "66.8") {
		t.Fatalf("figure render broken:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline([]float64{0, 1}); len(s) != 2 || s[0] == s[1] {
		t.Fatalf("sparkline = %q", s)
	}
	if s := sparkline([]float64{5, 5, 5}); s != "___" {
		t.Fatalf("flat sparkline = %q", s)
	}
	if sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
}
