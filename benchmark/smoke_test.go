package main

import (
	"context"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"

	"multirag/benchmark/harness"
	"multirag/benchmark/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload small and short, and holds what it emits
// against BENCHMARK.json: the same workload names, the same end-to-end metric
// names in the same order, well-formed names and finite, non-zero values.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	if len(sp.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(names))
	}
	for i, w := range sp.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, names[i])
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := harness.Run(ctx, name, harness.Options{
				Seed: 1, Scale: 0.05, Seconds: 1, Setups: 1, Reopens: 1, TempRoot: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Fatalf("violations: %v", res.Violations)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(res.EndToEnd) != len(sp.EndToEnd) {
				t.Fatalf("emitted %d end-to-end metrics, BENCHMARK.json lists %d", len(res.EndToEnd), len(sp.EndToEnd))
			}
			for i, m := range res.EndToEnd {
				want := sp.EndToEnd[i]
				if m.Name != want.Name || m.Unit != want.Unit {
					t.Errorf("metric %d: emitted %s [%s], BENCHMARK.json lists %s [%s]", i, m.Name, m.Unit, want.Name, want.Unit)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s = %v, want a finite positive number", m.Name, m.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(harness.ContractLine(res, res.EndToEnd)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(sp.EndToEnd) {
				t.Errorf("contract line %+v does not carry the result", line)
			}
		})
	}
}

// TestStreamHash: -seed is the only input to generation.
func TestStreamHash(t *testing.T) {
	hash := func(seed uint64, name string) uint64 {
		c, err := workload.Generate(seed, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return workload.NewStream(c).Hash(name, 300)
	}
	for _, name := range workload.Names() {
		if a, b := hash(1, name), hash(1, name); a != b {
			t.Errorf("%s: seed 1 gave request streams %016x and %016x", name, a, b)
		}
		if a, b := hash(1, name), hash(2, name); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream %016x", name, a)
		}
	}
}

// TestViolationExitsNonZero: a failed correctness check must fail the process.
func TestViolationExitsNonZero(t *testing.T) {
	if code := exitCode(&harness.Result{}); code != 0 {
		t.Errorf("clean result exits %d", code)
	}
	if code := exitCode(&harness.Result{Violations: []string{"reopened digest differs"}}); code == 0 {
		t.Error("a result with a violation exits 0")
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
