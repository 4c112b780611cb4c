package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multirag/internal/baselines"
	"multirag/internal/datasets"
)

// tinyOpts runs every experiment end to end at a tiny scale: about a second
// for all six paper experiments together.
func tinyOpts(sb *strings.Builder) Options {
	return Options{Seed: 2, Scale: 0.06, Out: sb}
}

// checkGolden runs one experiment at tinyOpts and diffs its output against
// testdata/<name>.golden — every F1, precision, recall, count and case-study
// line is pinned, and so is every time cell, since those are priced cost (a
// pure function of the workload and the seed), not wall time. A missing
// golden file is written from the current output and the test fails; so
// regenerating one after a deliberate change is: delete it, run the test
// twice, and review the diff.
func checkGolden(t *testing.T, name string, run func(Options) error) {
	t.Helper()
	var sb strings.Builder
	if err := run(tinyOpts(&sb)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := sb.String()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s did not exist; wrote it from this run — review and rerun", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs from %s at line %d:\n got  %q\n want %q", name, path, i+1, g, w)
			}
		}
	}
}

func TestTableISmoke(t *testing.T)   { checkGolden(t, "table1", TableI) }
func TestTableIISmoke(t *testing.T)  { checkGolden(t, "table2", TableII) }
func TestTableIIISmoke(t *testing.T) { checkGolden(t, "table3", TableIII) }
func TestTableIVSmoke(t *testing.T)  { checkGolden(t, "table4", TableIV) }
func TestTableVSmoke(t *testing.T)   { checkGolden(t, "table5", TableV) }

func TestFiguresSmoke(t *testing.T) {
	checkGolden(t, "figure5", Figure5)
	checkGolden(t, "figure6", Figure6)
	checkGolden(t, "figure7", Figure7)
}

func TestDatasetCacheReuses(t *testing.T) {
	c := datasetCache{}
	o := Options{Seed: 2, Scale: 0.06}
	a, err := c.get("movies", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.get("movies", o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache must return the same dataset instance")
	}
	if _, err := c.get("nonexistent", o); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		0.333:  "0.33",
		9.99:   "9.99",
		42.123: "42.1",
		1234.6: "1235",
	}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Errorf("fmtSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestScaleSpecFloors(t *testing.T) {
	o := Options{Scale: 0.0001}
	spec := o.scaleSpec(datasets.Movies(1))
	if spec.Entities < 8 || spec.Queries < 5 {
		t.Fatalf("scaling must floor workload sizes: %+v", spec)
	}
	qa := o.scaleQA(datasets.Hotpot(1))
	if qa.Questions < 5 {
		t.Fatalf("QA scaling must floor question count: %+v", qa)
	}
}

func TestQueriesForFiltersByFormat(t *testing.T) {
	spec := datasets.Movies(3)
	spec.Entities = 30
	spec.Queries = 20
	d := datasets.MustGenerate(spec)
	all, err := d.QueriesFor("J/K/C", 20)
	if err != nil {
		t.Fatalf("QueriesFor(J/K/C): %v", err)
	}
	jk, err := d.QueriesFor("J/K", 20)
	if err != nil {
		t.Fatalf("QueriesFor(J/K): %v", err)
	}
	if len(jk) == 0 || len(all) == 0 {
		t.Fatal("workloads must not be empty")
	}
	// Every J/K query must have a correct claim among J/K sources.
	formatOf := map[string]string{}
	for _, s := range spec.Sources {
		formatOf[s.Name] = s.Format
	}
	for _, q := range jk {
		ok := false
		for _, c := range d.Claims {
			if c.Correct &&
				datasets.GoldKey(c.Entity, c.Attribute) == datasets.GoldKey(q.Entity, q.Attribute) &&
				(formatOf[c.Source] == "json" || formatOf[c.Source] == "kg") {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("query %s not answerable from J/K sources", q.ID)
		}
	}
}

// TestBaselineContractsMatchTables pins each comparison method's contracts to
// the tables that run it: a Table II column that implements QAMethod must be
// a Table IV row, and a Table IV row that implements FusionMethod a Table II
// column. An answer path that no table runs then fails here instead of
// passing the export guard as an interface method.
func TestBaselineContractsMatchTables(t *testing.T) {
	fusion, qa := map[string]bool{}, map[string]bool{}
	for _, m := range tableIIMethods() {
		fusion[m.Name()] = true
	}
	for _, m := range tableIVMethods() {
		qa[m.Name()] = true
	}
	for _, m := range tableIIMethods() {
		if _, ok := m.(baselines.QAMethod); ok && !qa[m.Name()] {
			t.Errorf("%s implements QAMethod but is not a Table IV row", m.Name())
		}
	}
	for _, m := range tableIVMethods() {
		if _, ok := m.(baselines.FusionMethod); ok && !fusion[m.Name()] {
			t.Errorf("%s implements FusionMethod but is not a Table II column", m.Name())
		}
	}
}
