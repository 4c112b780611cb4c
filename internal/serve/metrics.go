package serve

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"multirag"
)

// ClassMetrics is one SLO class's serving report — interactive, batch or
// ingest, in that order in MetricsSnapshot.Classes: outcome counters plus the
// completed-request latency distribution (queue wait + execution, measured
// from admission to answer delivery). Max and mean are exact; the
// percentiles are nearest-rank to within one bucket of the class's latency
// histogram (see latencyHist).
type ClassMetrics struct {
	Name      string `json:"name"`
	Completed int64  `json:"completed"`
	// RejectedAdmission counts requests shed before any queue: /v1/ingest
	// refused while the group committer's admission window is full.
	// RejectedQueue counts requests refused because their class's share of
	// the line already held Config.QueueCap queries.
	RejectedAdmission int64 `json:"rejected_admission"`
	RejectedQueue     int64 `json:"rejected_queue"`
	TimedOut          int64 `json:"timed_out"`
	Failed            int64 `json:"failed"`
	// DeadlineExceeded counts requests that exhausted their end-to-end budget
	// and were not delivered — while still queued, or mid-evaluation with
	// Config.Degrade off. Canceled counts requests whose client went away
	// before an answer could be delivered. Degraded counts partial answers
	// delivered with 200 + Degraded under Config.Degrade; those are also
	// included in Completed.
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	Canceled         int64   `json:"canceled"`
	Degraded         int64   `json:"degraded"`
	P50Micros        float64 `json:"p50_us"`
	P95Micros        float64 `json:"p95_us"`
	P99Micros        float64 `json:"p99_us"`
	MaxMicros        float64 `json:"max_us"`
	MeanMicros       float64 `json:"mean_us"`
	ThroughputRPS    float64 `json:"throughput_rps"`
}

// MetricsSnapshot is the /v1/metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Classes       []ClassMetrics `json:"classes"`
	// QueueDepths reports the queries of each query class, interactive and
	// batch, waiting in the scheduler's line at snapshot time.
	QueueDepths map[string]int `json:"queue_depths"`
	// IngestInflight/IngestCapacity mirror the group committer's admission
	// state (core.IngestPressure) — the coupling that turns committer
	// saturation into front-door 429s.
	IngestInflight int `json:"ingest_inflight"`
	IngestCapacity int `json:"ingest_capacity"`
	// Durability reports the WAL append latch and checkpoint horizon;
	// Recovery what startup crash recovery found when the server was opened
	// over an existing data directory (nil for in-memory deployments).
	Durability multirag.DurabilityInfo `json:"durability"`
	Recovery   *multirag.RecoveryInfo  `json:"recovery,omitempty"`
	// Router reports replica routing state — per-replica state, lag and
	// anti-entropy counters, and where engine calls were routed — when the
	// server was configured with a ReplicaSet; nil otherwise.
	Router *RouterMetrics `json:"router,omitempty"`
}

// classCounters accumulates one class's outcomes.
type classCounters struct {
	completed         int64
	rejectedAdmission int64
	rejectedQueue     int64
	timedOut          int64
	failed            int64
	deadlineExceeded  int64
	canceled          int64
	degraded          int64
	lat               latencyHist
}

// The latency histogram is log-linear: durations below 2^histMinExp ns
// (~1 µs) fall into histSub linear buckets, and each power of two above is
// split into histSub linear sub-buckets, so a bucket is at most 1/histSub
// (6.25 %) as wide as its lower bound. The buckets cover every
// time.Duration.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histMinExp  = 10
	histBuckets = histSub + (63-histMinExp)*histSub
)

// latencyHist is one class's completed-request latencies in a fixed-size
// log-linear histogram: recording is a few instructions and no allocation,
// and a snapshot walks the buckets instead of sorting every latency the
// server ever recorded. Count, sum and max are exact.
type latencyHist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	max    time.Duration
}

// histBucket returns the bucket holding d; negative durations count as 0.
func histBucket(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < 1<<histMinExp {
		return int(v >> (histMinExp - histSubBits))
	}
	e := bits.Len64(v) - 1 // v is in [2^e, 2^(e+1))
	return histSub + (e-histMinExp)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// histBounds returns bucket i's half-open range [lo, hi) in nanoseconds.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		const w = 1 << (histMinExp - histSubBits)
		return uint64(i) * w, uint64(i+1) * w
	}
	e := histMinExp + (i-histSub)/histSub
	w := uint64(1) << (e - histSubBits)
	lo = 1<<e + uint64((i-histSub)%histSub)*w
	return lo, lo + w
}

func (h *latencyHist) record(d time.Duration) {
	d = max(d, 0)
	h.counts[histBucket(d)]++
	h.n++
	h.sum += d
	h.max = max(h.max, d)
}

// quantile is the nearest-rank p-quantile (0 <= p <= 1) to within one
// bucket: the upper bound of the bucket holding the ceil(p·n)-th smallest
// latency, capped at the exact maximum. An empty histogram yields 0.
func (h *latencyHist) quantile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(p*float64(h.n))), 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			_, hi := histBounds(i)
			return time.Duration(min(hi, uint64(h.max)))
		}
	}
	return h.max
}

// metrics collects per-class serving outcomes under one mutex, one set of
// counters per class label. Latencies go into a fixed-size histogram per
// class, so neither recording nor a snapshot grows with the number of
// requests served.
type metrics struct {
	mu      sync.Mutex
	classes [numClasses]classCounters
	start   time.Time
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

func (m *metrics) record(c class, d time.Duration) {
	m.mu.Lock()
	m.classes[c].completed++
	m.classes[c].lat.record(d)
	m.mu.Unlock()
}

func (m *metrics) rejectAdmission(c class) {
	m.mu.Lock()
	m.classes[c].rejectedAdmission++
	m.mu.Unlock()
}

func (m *metrics) rejectQueue(c class) {
	m.mu.Lock()
	m.classes[c].rejectedQueue++
	m.mu.Unlock()
}

func (m *metrics) timeout(c class) {
	m.mu.Lock()
	m.classes[c].timedOut++
	m.mu.Unlock()
}

func (m *metrics) fail(c class) {
	m.mu.Lock()
	m.classes[c].failed++
	m.mu.Unlock()
}

func (m *metrics) deadline(c class) {
	m.mu.Lock()
	m.classes[c].deadlineExceeded++
	m.mu.Unlock()
}

func (m *metrics) canceled(c class) {
	m.mu.Lock()
	m.classes[c].canceled++
	m.mu.Unlock()
}

func (m *metrics) degraded(c class) {
	m.mu.Lock()
	m.classes[c].degraded++
	m.mu.Unlock()
}

// snapshot digests the counters into the wire shape.
func (m *metrics) snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	uptime := time.Since(m.start)
	snap := MetricsSnapshot{UptimeSeconds: uptime.Seconds()}
	for i := range m.classes {
		c := &m.classes[i]
		cm := ClassMetrics{
			Name:              class(i).String(),
			Completed:         c.completed,
			RejectedAdmission: c.rejectedAdmission,
			RejectedQueue:     c.rejectedQueue,
			TimedOut:          c.timedOut,
			Failed:            c.failed,
			DeadlineExceeded:  c.deadlineExceeded,
			Canceled:          c.canceled,
			Degraded:          c.degraded,
		}
		if c.lat.n > 0 {
			cm.P50Micros = micros(c.lat.quantile(0.50))
			cm.P95Micros = micros(c.lat.quantile(0.95))
			cm.P99Micros = micros(c.lat.quantile(0.99))
			cm.MaxMicros = micros(c.lat.max)
			cm.MeanMicros = micros(c.lat.sum) / float64(c.lat.n)
		}
		if uptime > 0 {
			cm.ThroughputRPS = float64(c.completed) / uptime.Seconds()
		}
		snap.Classes = append(snap.Classes, cm)
	}
	return snap
}

func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
