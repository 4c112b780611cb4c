package harness

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: the
// choosing-metrics rule that keeps a tail from being read off a handful of
// requests.
const minBeyond = 10

// MinSamples is the smallest sample a p95 may be read from (nearest rank
// 0.95*n leaves exactly minBeyond samples beyond it at n = 200).
const MinSamples = 200

// NearestRank returns the nearest-rank p-th percentile (0 < p < 1) of sorted
// and how many samples lie beyond it. It is the only percentile code in the
// benchmark. No samples give 0, 0.
func NearestRank(sorted []time.Duration, p float64) (value time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(p*float64(n))), 1), n)
	return sorted[rank-1], n - rank
}

// Percentile is NearestRank in milliseconds for a gate-worthy reading: it
// fails when fewer than minBeyond samples lie beyond the chosen rank.
func Percentile(sorted []time.Duration, p float64) (float64, error) {
	v, beyond := NearestRank(sorted, p)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", p*100, len(sorted), beyond, minBeyond)
	}
	return float64(v) / float64(time.Millisecond), nil
}

// SortDurations sorts in place and returns its argument.
func SortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// Median of a small set of repeated measurements (set-ups, reopens).
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
