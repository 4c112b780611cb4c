// Command benchmark is the repo's end-to-end benchmark: it stands up what
// `multirag serve -data-dir D -replicas 2` stands up, in-process on a real
// loopback listener, loads one fixed corpus and drives it over HTTP from two
// closed-loop clients. See README.md in this directory.
//
//	go run ./benchmark                         every workload, seed 1
//	go run ./benchmark -workload W -seed S     one workload; last line is JSON
//	go run ./benchmark -workload W -trace 1    the per-layer pass (benchmark/layers)
//	go run ./benchmark -workload W -selfcheck 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"multirag/benchmark/harness"
	"multirag/benchmark/workload"
)

// outDir holds everything a run writes: data directories while it runs and
// trace files afterwards. It is inside the checkout and git-ignored.
const outDir = "benchmark/out"

// workloadTimeout fails a hung workload instead of blocking the pipeline.
const workloadTimeout = 150 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all): "+fmt.Sprint(workload.Names()))
		seed      = flag.Uint64("seed", 1, "generation seed; the only input to the workload generators")
		seconds   = flag.Float64("seconds", 10, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 runs the per-layer pass (go run -tags layers ./benchmark/layers) instead")
		scale     = flag.Float64("scale", 1, "corpus scale; 1 is the paper's six datasets at twice preset size (BENCHMARK.json pins 1)")
		selfcheck = flag.Int("selfcheck", 0, "run the workload 2K times labelled A and B alternately and compare the medians with the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	names := workload.Names()
	if *name != "" {
		names = []string{*name}
	}
	if *trace == 1 {
		os.Exit(runLayers(flag.CommandLine))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	opt := harness.Options{Seed: *seed, Scale: *scale, Seconds: *seconds, TempRoot: outDir, Log: os.Stderr}
	printEnv(os.Stdout)

	if *selfcheck > 0 {
		ok := true
		for _, n := range names {
			ok = selfCheck(n, opt, *selfcheck) && ok
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	code := 0
	var last *harness.Result
	for _, n := range names {
		res, err := runOne(n, opt)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		code = max(code, exitCode(res))
		last = res
	}
	if *name != "" {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(harness.ContractLine(last, last.EndToEnd))
	}
	os.Exit(code)
}

// runOne runs a workload under the hard timeout. A workload that hangs
// somewhere no context reaches (a Close that never returns) is cut off by
// the watchdog, which still removes the data directories.
func runOne(name string, opt harness.Options) (*harness.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout)
	defer cancel()
	watchdog := time.AfterFunc(workloadTimeout+15*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running %v after its deadline; giving up\n", name, 15*time.Second)
		removeDataDirs(opt.TempRoot)
		os.Exit(2)
	})
	defer watchdog.Stop()
	return harness.Run(ctx, name, opt)
}

// removeDataDirs deletes what an interrupted run left under root, keeping
// trace files.
func removeDataDirs(root string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
}

func exitCode(res *harness.Result) int {
	if res.Correct() {
		return 0
	}
	return 1
}

// runLayers hands the run to the per-layer pass. That program imports layer
// internals and so lives behind the `layers` build tag, where an internal
// signature change cannot break this binary.
func runLayers(fs *flag.FlagSet) int {
	args := []string{"run", "-tags", "layers", "./benchmark/layers"}
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "trace" && f.Name != "selfcheck" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return 0
}

func printEnv(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env nproc=%d gomaxprocs=%d go=%s commit=%s clients=%d replicas=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, harness.Clients, harness.Replicas)
}

// printResult prints one line per (workload, metric): name value unit n=.
func printResult(w io.Writer, res *harness.Result) {
	harness.PrintMetrics(w, res.Workload, res.EndToEnd)
	harness.PrintMetrics(w, res.Workload, res.Info)
	harness.PrintVerdict(w, res)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
