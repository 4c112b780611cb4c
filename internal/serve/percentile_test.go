package serve

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Quantiles is the exact oracle for the serving metrics' latency histogram:
// the p-quantile (0 <= p <= 1) of sample at each of ps by the nearest-rank
// method — the smallest observation v such that at least ceil(p*n)
// observations are <= v. p = 1 is the maximum; an empty sample yields 0. It
// sorts one private copy of the sample; the input is not modified. It served
// /v1/metrics itself until the latency record became a fixed-size histogram.
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

// refPercentile is the sort-free nearest-rank oracle: the smallest sample
// value v such that at least ceil(p*n) observations are <= v, found by
// counting rather than sorting.
func refPercentile(sample []time.Duration, p float64) time.Duration {
	n := len(sample)
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
	best := time.Duration(math.MaxInt64)
	for _, v := range sample {
		if v > best {
			continue
		}
		le := 0
		for _, w := range sample {
			if w <= v {
				le++
			}
		}
		if le >= rank {
			best = v
		}
	}
	return best
}

func TestPercentileMatchesCountingOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		sample := make([]time.Duration, n)
		for i := range sample {
			// Coarse values force duplicates, the case where naive index
			// arithmetic and rank semantics disagree most often.
			sample[i] = time.Duration(rng.Intn(20)) * time.Millisecond
		}
		qs := Quantiles(sample, ps...)
		for i, p := range ps {
			if want := refPercentile(sample, p); qs[i] != want {
				t.Fatalf("trial %d n=%d p=%g: Quantiles=%v oracle=%v sample=%v",
					trial, n, p, qs[i], want, sample)
			}
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Quantiles(nil, 0.99)[0]; got != 0 {
		t.Fatalf("empty sample: got %v, want 0", got)
	}
	one := []time.Duration{42 * time.Millisecond}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantiles(one, p)[0]; got != one[0] {
			t.Fatalf("n=1 p=%g: got %v, want %v", p, got, one[0])
		}
	}
	two := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if got := Quantiles(two, 0.5)[0]; got != two[0] {
		t.Fatalf("n=2 p50: got %v, want %v", got, two[0])
	}
	if got := Quantiles(two, 0.51)[0]; got != two[1] {
		t.Fatalf("n=2 p51: got %v, want %v", got, two[1])
	}
	if got := Quantiles(two, 1)[0]; got != two[1] {
		t.Fatalf("n=2 max: got %v, want %v", got, two[1])
	}
}

// TestPercentileSmallNUnbiased pins the motivating bug: with 50 samples the
// nearest-rank p95 is the 48th order statistic (rank ceil(0.95*50) = 48);
// the old truncating closure returned the 47th.
func TestPercentileSmallNUnbiased(t *testing.T) {
	sample := make([]time.Duration, 50)
	for i := range sample {
		sample[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := Quantiles(sample, 0.95)[0]; got != 48*time.Millisecond {
		t.Fatalf("n=50 p95: got %v, want 48ms", got)
	}
	if got := Quantiles(sample, 0.99)[0]; got != 50*time.Millisecond {
		t.Fatalf("n=50 p99: got %v, want 50ms", got)
	}
	if got := Quantiles(sample, 0.50)[0]; got != 25*time.Millisecond {
		t.Fatalf("n=50 p50: got %v, want 25ms", got)
	}
}
