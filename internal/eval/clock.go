package eval

import (
	"time"
)

// Clock is the virtual-time accounting used throughout the benchmarks.
// Reported "query time" is the priced cost of simulated externals alone: LLM
// traffic (priced by llm.CostModel inside the model), source-record fetches
// and historical-data validation scans (priced here). The process's own
// compute is not part of it, so a time cell is a pure function of the
// workload and the seed. See DESIGN.md §1, virtual-time model.
type Clock struct {
	virtual time.Duration
}

// PerHistoryScan prices one historical-entity validation scan (Fig. 7's
// dominant cost at α → 0).
const PerHistoryScan = 5 * time.Millisecond

// PerClaimFetch prices one source-record access during fusion. Batch
// algorithms (TruthFinder) touch the whole corpus per query under the
// on-demand protocol and dominate Table II's time column exactly as in the
// paper; line-graph and candidate-set methods touch a handful of records.
const PerClaimFetch = 2 * time.Millisecond

// ChargeClaimFetches charges n source-record accesses.
func (c *Clock) ChargeClaimFetches(n int) {
	c.virtual += time.Duration(n) * PerClaimFetch
}

// AddVirtual charges simulated latency.
func (c *Clock) AddVirtual(d time.Duration) { c.virtual += d }

// ChargeHistoryScans charges n historical validation scans.
func (c *Clock) ChargeHistoryScans(n int) {
	c.virtual += time.Duration(n) * PerHistoryScan
}

// Total returns the priced cost charged so far.
func (c *Clock) Total() time.Duration { return c.virtual }

// Seconds returns the total in floating-point seconds — the unit of the
// paper's time columns.
func (c *Clock) Seconds() float64 { return c.Total().Seconds() }
