package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIQRKnownAnswers holds iqr to values worked out by hand, as Python's
// statistics.quantiles(v, n=4) gives them, on unsorted input, odd and even
// lengths, and two values, where the exclusive method extrapolates past them.
func TestIQRKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		v   []float64
		iqr float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3},           // quartiles 1.5 and 4.5
		{[]float64{40, 10, 30, 20}, 25},         // 12.5 and 37.5
		{[]float64{2, 1}, 1.5},                  // 0.75 and 2.25
		{[]float64{438, 436, 441, 437, 440}, 4}, // 436.5 and 440.5
		{[]float64{7}, 0},
	} {
		if got := iqr(c.v); got != c.iqr {
			t.Errorf("iqr(%v) = %g, want %g", c.v, got, c.iqr)
		}
	}
}

// TestReportPairsRunsAndAppliesBounds feeds report three pairs of runs: a
// lower-is-better metric the change wins in two pairs of three and a
// higher-is-better one whose median falls past its bound, which must fail
// the comparison.
func TestReportPairsRunsAndAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(allocs, f1 string) string {
		return `w {"correct":true,"attempted":10,"failed":0,"metrics":{"allocs_per_op":{"value":` + allocs + `},"answer_f1":{"value":` + f1 + `}}}`
	}
	base, err := readRuns(write("base", run("100", "0.8"), run("100", "0.8"), run("90", "0.8")))
	if err != nil {
		t.Fatal(err)
	}
	change, err := readRuns(write("change", run("90", "0.7"), run("95", "0.7"), run("95", "0.7")))
	if err != nil {
		t.Fatal(err)
	}
	sp := &spec{EndToEnd: []metric{{"allocs_per_op", "lower", 0.2}, {"answer_f1", "higher", 0.08}}}
	var out strings.Builder
	if report(&out, sp, base, change) {
		t.Errorf("a median 12.5%% worse than a 0.08 bound passed:\n%s", out.String())
	}
	for _, want := range []string{"w: 3 pairs", "allocs_per_op", "100 [10]", "95 [5]", "-5.0%", "2/3", "answer_f1", "-12.5%", "0/3", "OUTSIDE BOUND"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
