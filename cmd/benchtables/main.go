// Command benchtables regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	benchtables                  # everything, paper scale
//	benchtables -table 2        # one table (1..5)
//	benchtables -figure 5       # one figure (5..7)
//	benchtables -scale 0.2      # quick run at 20% workload
//	benchtables -seed 7         # different generation seed
//	benchtables -json BENCH_core.json   # also write per-job wall times as JSON
//
// The serving system itself — HTTP front door, ingest pipeline, WAL and
// replicas — is measured end to end by `go run ./benchmark`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"multirag/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1-5)")
	figure := flag.Int("figure", 0, "regenerate only this figure (5-7)")
	scale := flag.Float64("scale", 1.0, "workload scale factor (entities and queries)")
	seed := flag.Uint64("seed", 1, "dataset / model seed")
	jsonOut := flag.String("json", "", "write per-job wall-clock timings to this JSON file")
	flag.Parse()

	opts := bench.Options{Seed: *seed, Scale: *scale, Out: os.Stdout}

	type job struct {
		name string
		run  func(bench.Options) error
	}
	var jobs []job
	add := func(name string, run func(bench.Options) error) {
		jobs = append(jobs, job{name, run})
	}
	switch {
	case *table > 0:
		switch *table {
		case 1:
			add("Table I", bench.TableI)
		case 2:
			add("Table II", bench.TableII)
		case 3:
			add("Table III", bench.TableIII)
		case 4:
			add("Table IV", bench.TableIV)
		case 5:
			add("Table V", bench.TableV)
		default:
			fmt.Fprintf(os.Stderr, "benchtables: unknown table %d\n", *table)
			os.Exit(2)
		}
	case *figure > 0:
		switch *figure {
		case 5:
			add("Figure 5", bench.Figure5)
		case 6:
			add("Figure 6", bench.Figure6)
		case 7:
			add("Figure 7", bench.Figure7)
		default:
			fmt.Fprintf(os.Stderr, "benchtables: unknown figure %d\n", *figure)
			os.Exit(2)
		}
	default:
		add("Table I", bench.TableI)
		add("Table II", bench.TableII)
		add("Table III", bench.TableIII)
		add("Table IV", bench.TableIV)
		add("Table V", bench.TableV)
		add("Figure 5", bench.Figure5)
		add("Figure 6", bench.Figure6)
		add("Figure 7", bench.Figure7)
	}
	type timing struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	}
	report := struct {
		Seed    uint64   `json:"seed"`
		Scale   float64  `json:"scale"`
		Jobs    []timing `json:"jobs"`
		Seconds float64  `json:"total_seconds"`
	}{Seed: *seed, Scale: *scale}
	for _, j := range jobs {
		start := time.Now()
		if err := j.run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		report.Jobs = append(report.Jobs, timing{Name: j.name, Seconds: elapsed.Seconds()})
		report.Seconds += elapsed.Seconds()
		fmt.Fprintf(os.Stdout, "\n[%s regenerated in %v]\n\n", j.name, elapsed.Round(time.Millisecond))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: marshal timings: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}
