package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// histQuantile is what the latency histogram must report for a sample whose
// exact nearest-rank quantile is want: the upper bound of want's bucket,
// capped at the sample's maximum.
func histQuantile(want, maxLat time.Duration) time.Duration {
	_, hi := histBounds(histBucket(want))
	return time.Duration(min(hi, uint64(maxLat)))
}

// TestMetricsSnapshotUsesNearestRank pins the serving metrics onto the
// nearest-rank quantile of the latency histogram: 50 completed requests at
// 1..50ms must report, for p50/p95/p99, the bucket of the 25th, 48th and
// 50th order statistics (rank ceil(p*50)), and an exact count, max and mean.
func TestMetricsSnapshotUsesNearestRank(t *testing.T) {
	m := newMetrics([]string{"c"})
	for i := 1; i <= 50; i++ {
		m.record("c", time.Duration(i)*time.Millisecond)
	}
	snap := m.snapshot()
	if len(snap.Classes) != 1 {
		t.Fatalf("classes: %d", len(snap.Classes))
	}
	c := snap.Classes[0]
	const maxLat = 50 * time.Millisecond
	if c.P50Micros != micros(histQuantile(25*time.Millisecond, maxLat)) ||
		c.P95Micros != micros(histQuantile(48*time.Millisecond, maxLat)) ||
		c.P99Micros != 50000 || c.MaxMicros != 50000 {
		t.Fatalf("percentiles: %+v", c)
	}
	if c.P50Micros < 25000 || c.P50Micros > 25000*(1+1.0/histSub) || c.P95Micros < 48000 || c.P95Micros > 48000*(1+1.0/histSub) {
		t.Fatalf("percentiles further than one bucket from the order statistics: %+v", c)
	}
	if c.Completed != 50 {
		t.Fatalf("completed: %d", c.Completed)
	}
	if math.Abs(c.MeanMicros-25500) > 1e-9 {
		t.Fatalf("mean: %v", c.MeanMicros)
	}
}

// TestLatencyHistMatchesOracle holds the histogram's quantiles to the exact
// nearest-rank oracle on random and adversarial samples: each must be the
// upper bound of the bucket holding the oracle's order statistic (capped at
// the maximum), hence at most one bucket's width above it — 1/16 of the value
// from 1 µs up, 64 ns below.
func TestLatencyHistMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := func() []time.Duration {
		var out []time.Duration
		for e := 0; e < 63; e++ {
			v := time.Duration(1) << e
			out = append(out, v-1, v, v+1)
		}
		return append(out, math.MaxInt64, math.MaxInt64-1)
	}
	samples := map[string][]time.Duration{
		"empty":         nil,
		"one":           {42 * time.Millisecond},
		"zeros":         make([]time.Duration, 100),
		"negative":      {-time.Second, -1, 0, 3},
		"all-equal":     {7777, 7777, 7777, 7777, 7777},
		"sub-µs":        {1, 63, 64, 65, 127, 128, 1000, 1023},
		"bucket-edges":  edges(),
		"huge":          {math.MaxInt64, math.MaxInt64, time.Hour, time.Microsecond},
		"one-straggler": append(make([]time.Duration, 999), time.Minute),
	}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		s := make([]time.Duration, n)
		for i := range s {
			if trial%2 == 0 {
				s[i] = time.Duration(rng.Intn(50_000)) * time.Microsecond // coarse: many duplicates
			} else {
				s[i] = time.Duration(math.Exp(rng.Float64() * math.Log(1e11))) // log-uniform 1 ns .. 100 s
			}
		}
		samples[fmt.Sprintf("random-%d", trial)] = s
	}
	ps := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for name, sample := range samples {
		var h latencyHist
		clamped := make([]time.Duration, len(sample))
		for i, d := range sample {
			h.record(d)
			clamped[i] = max(d, 0)
		}
		want := Quantiles(clamped, ps...)
		maxLat := Quantiles(clamped, 1)[0]
		for i, p := range ps {
			got := h.quantile(p)
			if len(sample) == 0 {
				if got != 0 {
					t.Fatalf("%s: p%g of an empty histogram = %v", name, p, got)
				}
				continue
			}
			if exp := histQuantile(want[i], maxLat); got != exp {
				t.Fatalf("%s: p%g = %v, want %v (oracle %v)", name, p, got, exp, want[i])
			}
			lo, hi := histBounds(histBucket(want[i]))
			if got < want[i] || uint64(got-want[i]) > hi-lo {
				t.Fatalf("%s: p%g = %v, more than one bucket (%d ns) from the oracle %v", name, p, got, hi-lo, want[i])
			}
			if want[i] >= 1<<histMinExp && float64(got-want[i]) > float64(want[i])/histSub {
				t.Fatalf("%s: p%g = %v, relative error above 1/%d of the oracle %v", name, p, got, histSub, want[i])
			}
		}
		if h.n != uint64(len(sample)) || (len(sample) > 0 && h.max != maxLat) {
			t.Fatalf("%s: count %d max %v, want %d and %v", name, h.n, h.max, len(sample), maxLat)
		}
	}
}

// TestMetricsRecordBounded is the unbounded-latency-slice bugfix: recording a
// latency allocates nothing, however many the server has already recorded.
func TestMetricsRecordBounded(t *testing.T) {
	m := newMetrics([]string{"c"})
	for i := 0; i < 100_000; i++ {
		m.record("c", time.Duration(i)*time.Microsecond)
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.record("c", time.Millisecond) }); allocs != 0 {
		t.Fatalf("record allocates %.0f objects per call", allocs)
	}
}
