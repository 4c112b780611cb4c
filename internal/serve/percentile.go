package serve

import (
	"math"
	"sort"
	"time"
)

// Quantiles returns the p-quantile (0 <= p <= 1) of sample at each of ps by
// the nearest-rank method: the smallest observation v such that at least
// ceil(p*n) observations are <= v. p = 1 is the maximum; an empty sample
// yields 0. It sorts one private copy of the sample; the input is not
// modified. This is the percentile implementation behind the serving metrics
// endpoint — the per-call closures it replaced truncated the index
// (int(p*(n-1))), biasing p95/p99 low for small n and panicking on empty
// samples.
func Quantiles(sample []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(sample) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// percentileSorted is the nearest-rank p-quantile of an already-ascending
// sample.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
