package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// PrintMetrics prints one line per metric: workload name value unit n=.
func PrintMetrics(w io.Writer, workload string, metrics []Metric) {
	for _, m := range metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", workload, m.Name, m.Value, m.Unit, m.N)
	}
}

// PrintVerdict prints the request counts and every violation of a result.
func PrintVerdict(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%s attempted %d failed %d correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct())
	for _, v := range res.Violations {
		fmt.Fprintf(w, "%s VIOLATION %s\n", res.Workload, v)
	}
}

// ContractLine is the driver's result object for one run: correct,
// attempted, failed, and the given metrics by name with value and unit.
func ContractLine(res *Result, metrics []Metric) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed, map[string]metric{}}
	for _, m := range metrics {
		out.Metrics[m.Name] = metric{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Finite floats and strings always marshal; NaN would not.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, res.Attempted, res.Failed)
	}
	return string(b)
}
