//go:build layers

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"multirag/benchmark/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestLayersSmoke is the twin of the gating smoke test: every workload's
// per-layer pass, small and short, must emit exactly the per_layer metrics
// BENCHMARK.json lists, finite, and leave a trace file with linked spans.
func TestLayersSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out, res, err := run(name, 1, 0.05, 1, dir, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Fatalf("violations: %v", res.Violations)
			}
			got := map[string]string{}
			for _, m := range out.list {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s emitted twice", m.Name)
				}
				got[m.Name] = m.Unit
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
			}
			for _, want := range sp.PerLayer {
				if unit, ok := got[want.Name]; !ok {
					t.Errorf("BENCHMARK.json lists %s, the pass did not emit it", want.Name)
				} else if unit != want.Unit {
					t.Errorf("%s: emitted unit %q, BENCHMARK.json says %q", want.Name, unit, want.Unit)
				}
			}
			if len(got) != len(sp.PerLayer) {
				t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(sp.PerLayer))
			}

			data, err := os.ReadFile(tracePath(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("empty trace")
			}
			byID := map[int]span{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			for _, s := range spans {
				if s.EndNS < s.StartNS {
					t.Fatalf("span %d ends before it starts", s.ID)
				}
				if s.Parent == 0 {
					if s.Name != "client.http" {
						t.Fatalf("root span %d is %s, want client.http", s.ID, s.Name)
					}
					continue
				}
				if p, ok := byID[s.Parent]; !ok || p.Request != s.Request {
					t.Fatalf("span %d (%s) has no parent in its own request", s.ID, s.Name)
				}
			}
		})
	}
}
