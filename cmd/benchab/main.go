// Command benchab compares two builds of the end-to-end benchmark from the
// result lines of alternated runs, as `make ab` collects them:
//
//	benchab BENCHMARK.json base.runs change.runs
//
// BENCHMARK.json is the base tree's, so a change cannot move its own bounds.
// Each .runs file holds one line per run, "<workload> <result JSON>", the
// JSON being the last line `go run ./benchmark -workload W` prints; the i-th
// run of a workload in one file is paired with the i-th in the other. For
// every workload it prints each gated metric's base and change median with
// the interquartile range of its runs, the change of the medians as a share
// of the base, in how many pairs the change read better, and the metric's
// bound, flagging a median worse than the base by more than the bound. It
// exits 1 if any run failed its correctness gate or any median is outside
// its bound.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"multirag/benchmark/harness"
)

// spec is the part of BENCHMARK.json benchab reads: the gated metrics.
type spec struct {
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is a run's last line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: benchab BENCHMARK.json base.runs change.runs")
		os.Exit(2)
	}
	var sp spec
	var base, change *runs
	raw, err := os.ReadFile(os.Args[1])
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err == nil {
		base, err = readRuns(os.Args[2])
	}
	if err == nil {
		change, err = readRuns(os.Args[3])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, &sp, base, change) {
		os.Exit(1)
	}
}

// runs are a build's results by workload, in the order they ran, and the
// workloads in the order they first appear.
type runs struct {
	order []string
	by    map[string][]result
}

func readRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runs{by: map[string][]result{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		w, js, ok := strings.Cut(sc.Text(), " ")
		var r result
		if !ok || json.Unmarshal([]byte(js), &r) != nil {
			return nil, fmt.Errorf("%s:%d: want \"<workload> <result JSON>\"", path, line)
		}
		if _, seen := rs.by[w]; !seen {
			rs.order = append(rs.order, w)
		}
		rs.by[w] = append(rs.by[w], r)
	}
	return rs, sc.Err()
}

// report prints the comparison of every workload both builds ran and says
// whether every run was correct and every median within its bound.
func report(w io.Writer, sp *spec, base, change *runs) bool {
	ok := true
	for _, name := range base.order {
		b, c := base.by[name], change.by[name]
		pairs := min(len(b), len(c))
		if pairs == 0 {
			continue
		}
		b, c = b[:pairs], c[:pairs]
		fmt.Fprintf(w, "%s: %d pairs, failed ops %.4f%% base, %.4f%% change\n", name, pairs, failedShare(b), failedShare(c))
		for i := range pairs {
			if !b[i].Correct || !c[i].Correct {
				fmt.Fprintf(w, "  pair %d: correctness gate failed (base %t, change %t)\n", i+1, b[i].Correct, c[i].Correct)
				ok = false
			}
		}
		fmt.Fprintf(w, "  %-28s %22s %22s %8s %6s %6s\n", "metric", "base median [IQR]", "change median [IQR]", "change", "wins", "bound")
		for _, m := range sp.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			if bv == nil || cv == nil {
				continue
			}
			bm, cm := harness.Median(bv), harness.Median(cv)
			delta := 0.0
			if bm != 0 {
				delta = (cm - bm) / bm
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			wins := 0
			for i := range bv {
				if (m.Better == "higher" && cv[i] > bv[i]) || (m.Better != "higher" && cv[i] < bv[i]) {
					wins++
				}
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-28s %22s %22s %+7.1f%% %3d/%-2d %6.2f%s\n", m.Name,
				fmt.Sprintf("%.4g [%.3g]", bm, iqr(bv)), fmt.Sprintf("%.4g [%.3g]", cm, iqr(cv)),
				100*delta, wins, pairs, m.Bound, verdict)
		}
	}
	return ok
}

// values is metric name's value in each run, or nil if a run lacks it.
func values(rs []result, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		v[i] = m.Value
	}
	return v
}

// failedShare is the share of attempted operations that failed, in percent.
func failedShare(rs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(attempted)
}

// iqr is the distance between the first and third quartiles of v, taken as
// Python's statistics.quantiles takes them by default (method "exclusive"):
// the i-th cut point lies at rank i(n+1)/4, interpolated between the two
// values around it — the first two or the last two when it falls outside, so
// for few values it extrapolates. The benchmark's selfcheck (spread) takes
// its quartiles the same way; the two must stay in step.
func iqr(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}
