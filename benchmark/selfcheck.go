package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"multirag/benchmark/harness"
)

// spec is the part of BENCHMARK.json the runner and its tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// selfCheck runs one workload 2K times with the same code and seed, labels
// the runs A and B alternately, and compares the two sets as the driver
// compares a parent with a change: per metric both medians, how much worse B
// reads than A as a share of A, the bound, and pass or fail. It also prints
// the quartile spread of all 2K runs, which the driver wants within the
// bound too. It is how the bounds in BENCHMARK.json were confirmed.
func selfCheck(name string, opt harness.Options, k int) bool {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	sets := [2]map[string][]float64{{}, {}}
	for i := 0; i < 2*k; i++ {
		res, err := runOne(name, opt)
		if err != nil {
			fatal(err)
		}
		if !res.Correct() {
			printResult(os.Stdout, res)
			return false
		}
		for _, m := range res.EndToEnd {
			sets[i%2][m.Name] = append(sets[i%2][m.Name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "# selfcheck %s run %d/%d (%c) done\n", name, i+1, 2*k, 'A'+rune(i%2))
	}
	ok := true
	fmt.Printf("selfcheck %s K=%d seed=%d\n", name, k, opt.Seed)
	fmt.Printf("%-28s %12s %12s %8s %8s %8s  %s\n", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, m := range sp.EndToEnd {
		a, b := harness.Median(sets[0][m.Name]), harness.Median(sets[1][m.Name])
		worse := (b - a) / a
		if m.Better == "higher" {
			worse = -worse
		}
		all := append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...)
		verdict := "pass"
		if worse > m.Bound || -worse > m.Bound {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("%-28s %12.6g %12.6g %+8.3f %8.3f %8.3f  %s\n", m.Name, a, b, worse, spread(all), m.Bound, verdict)
	}
	return ok
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles taken as Python's statistics.quantiles
// (method "exclusive") takes them, since that is what the driver computes.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / harness.Median(s)
}
