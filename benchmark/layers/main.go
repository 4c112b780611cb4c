//go:build layers

// Command layers is the per-layer pass of the benchmark. It runs the gating
// workload once with process, replica and server counters read around the
// measured phase, then replays a seeded sample of requests against the same
// loaded stack one level at a time — loopback round trip, handler, engine
// entry point, and each call into a layer — recording a span per call. It
// calls layer internals, which is why it sits behind the `layers` build tag:
// an internal signature change can break this program but never the gating
// run or tier-1. It is a stop-gap until spans are recorded inside the
// program (ROADMAP item 3).
//
//	go run -tags layers ./benchmark/layers -workload W -seed S
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multirag/benchmark/harness"
	"multirag/benchmark/workload"
)

const outDir = "benchmark/out"

// passTimeout bounds the whole pass, well inside the driver's 180 s.
const passTimeout = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", workload.QueryGraph, "workload to trace: "+fmt.Sprint(workload.Names()))
		seed    = flag.Uint64("seed", 1, "generation seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase of the counted run")
		scale   = flag.Float64("scale", 1, "corpus scale")
	)
	flag.Parse()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	watchdog := time.AfterFunc(passTimeout, func() {
		fmt.Fprintln(os.Stderr, "layers: pass still running after", passTimeout, "- giving up")
		os.Exit(2)
	})
	defer watchdog.Stop()

	out, res, err := run(*name, *seed, *scale, *seconds, outDir, os.Stderr)
	if err != nil {
		fatal(err)
	}
	harness.PrintMetrics(os.Stdout, *name, out.list)
	harness.PrintVerdict(os.Stdout, res)
	fmt.Println(harness.ContractLine(res, out.list))
	if !res.Correct() {
		os.Exit(1)
	}
}

// report is the ordered set of per-layer metrics of one pass.
type report struct {
	list []harness.Metric
}

func (m *report) set(name string, value float64, unit string, n int) {
	m.list = append(m.list, harness.Metric{Name: name, Value: value, Unit: unit, N: n})
}

// run executes the counted gating run with the replay hooked in after its
// measured phase, and writes the trace file.
func run(name string, seed uint64, scale, seconds float64, tempRoot string, log *os.File) (*report, *harness.Result, error) {
	out := &report{}
	counters := &counters{}
	var passErr error
	opt := harness.Options{
		Seed: seed, Scale: scale, Seconds: seconds, Setups: 1, Reopens: 1, TempRoot: tempRoot, Log: log,
		PhaseStart: counters.start,
		PhaseEnd: func(p harness.Phase) {
			counters.stop(p, out)
			passErr = replay(name, p, tempRoot, out, log)
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	res, err := harness.Run(ctx, name, opt)
	if err != nil {
		return nil, nil, err
	}
	if passErr != nil {
		return nil, nil, passErr
	}
	return out, res, nil
}

// tracePath is where the pass for a workload leaves its spans.
func tracePath(dir, name string) string { return filepath.Join(dir, "trace-"+name+".json") }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(2)
}
