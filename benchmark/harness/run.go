package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"multirag"
	"multirag/benchmark/workload"
)

// Options selects one workload run. Seed is the only input to generation.
type Options struct {
	Seed    uint64
	Scale   float64
	Seconds float64
	// Setups is how many times the deployment is built from scratch; setup_s
	// is the median and the last build is the one measured. Reopens is the
	// same for recovery_s.
	Setups  int
	Reopens int
	// TempRoot is the existing directory the data dirs are created under.
	TempRoot string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// PhaseStart and PhaseEnd bracket the measured phase; the per-layer pass
	// reads process and replica counters there and replays sampled requests
	// against the still-loaded stack. Either may be nil.
	PhaseStart func(*Stack)
	PhaseEnd   func(Phase)
}

// Phase is what PhaseEnd sees: the stack as the measured phase left it, the
// inputs it was driven with, and what the primary lane completed.
type Phase struct {
	Stack   *Stack
	Corpus  *workload.Corpus
	Stream  *workload.Stream
	Ops     int
	Elapsed time.Duration
	// Sorted holds the primary lane's latencies in ascending order.
	Sorted []time.Duration
	// NextDelta is the first unused position of the ingest sequence.
	NextDelta int
}

// Metric is one reported number with the sample count behind it.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Result is one finished workload run.
type Result struct {
	Workload string
	// EndToEnd holds exactly the end_to_end metrics of BENCHMARK.json.
	EndToEnd []Metric
	// Info holds the lines that are printed but not gated: the writer lane
	// of mixed-rw and the check.* state counts that let two runs of one seed
	// be compared exactly.
	Info       []Metric
	Attempted  int
	Failed     int
	Violations []string
}

// Correct reports whether every correctness check held.
func (r *Result) Correct() bool { return len(r.Violations) == 0 }

// maxFailedShare is the share of measured requests that may fail before the
// run itself is a violation.
const maxFailedShare = 0.001

const (
	// maxStretch is how many times opt.Seconds a phase may last while its
	// primary lane is still short of MinSamples.
	maxStretch = 6
	// ingestPerSecond is what two producers ingest per second at the commit
	// the benchmark was written against (19-20 requests/s on 2 vCPUs), a
	// little rounded up so a 10 s run clears MinSamples.
	ingestPerSecond = 22
	// On mixed-rw the one reader completes 15-16 batches/s and the one writer
	// 10 requests/s at that commit; the quotas are set so that both lanes
	// finish a 10 s run at about the same time (200 batches, 130 ingests).
	mixedBatchesPerSecond = 20
	mixedIngestsPerSecond = 13
	warmIngests           = 20
	probeQueries          = 1600
	settleTimeout         = 30 * time.Second
)

// ProcessCPU is the user and system CPU time the process has used.
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak resident
// set, so that a workload run after another in one process reports its own
// peak. Where the kernel refuses, the peak stays that of the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since the last reset: VmHWM, falling
// back on getrusage's lifetime maximum where /proc is not readable.
func peakRSSMB() (float64, error) {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024, nil
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// run is the state of one workload run.
type run struct {
	ctx  context.Context
	name string
	opt  Options
	root string // parent of this run's data directories

	st     *Stack
	corpus *workload.Corpus
	stream *workload.Stream
	sc     *scorer

	query, ingest *lane
	// lanes are the lanes the workload drives; lanes[0] is the primary one,
	// whose latencies and throughput are reported.
	lanes []*lane
	// acked counts the bytes of file content the server acknowledged.
	acked atomic.Int64
}

func (r *run) logf(format string, args ...any) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, "# %s: %s\n", r.name, fmt.Sprintf(format, args...))
	}
}

// Run executes one workload: set-ups, warm-up, one measured phase, the
// correctness gate, clean shutdown and recovery.
func Run(ctx context.Context, name string, opt Options) (*Result, error) {
	if opt.Setups < 1 {
		opt.Setups = 3
	}
	if opt.Reopens < 1 {
		opt.Reopens = 3
	}
	root, err := os.MkdirTemp(opt.TempRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	r := &run{ctx: ctx, name: name, opt: opt, root: root}
	resetPeakRSS()
	defer func() {
		if r.st != nil {
			_ = r.st.Down()
		}
	}()

	setupS, err := r.setUp()
	if err != nil {
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		return nil, err
	}
	ph := r.measure()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.conclude(setupS, ph)
}

// setUp builds the deployment opt.Setups times from scratch and keeps the
// last one. One set-up is generation, OpenDurable, one bulk IngestFiles,
// replica attach, listen, and a four-query handshake that reaches every
// replica, so that work a change defers to the first request still counts.
// It returns the median set-up time in seconds.
func (r *run) setUp() (float64, error) {
	var seconds []float64
	for k := 0; k < r.opt.Setups; k++ {
		if r.st != nil {
			if err := r.st.Down(); err != nil {
				return 0, fmt.Errorf("set-up %d: shutdown: %w", k, err)
			}
			r.st, r.corpus, r.stream = nil, nil, nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		corpus, err := workload.Generate(r.opt.Seed, r.opt.Scale)
		if err != nil {
			return 0, err
		}
		r.corpus, r.stream = corpus, workload.NewStream(corpus)
		if r.st, err = Up(filepath.Join(r.root, fmt.Sprintf("data-%d", k)), corpus.Files); err != nil {
			return 0, err
		}
		r.sc = newScorer(r.name == workload.QueryGraph || r.name == workload.QueryFallback)
		for i := 0; i < Replicas; i++ {
			r.sc.note(r.sc.graphQuery(r.st, r.stream.Graph(i)))
		}
		for i := 0; i < Replicas; i++ {
			r.sc.note(r.sc.fallbackQuery(r.st, r.stream.Fallback(i)))
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		r.logf("set-up %d/%d %.3fs", k+1, r.opt.Setups, seconds[k])
	}
	return Median(seconds), nil
}

// warmUp defines the workload's lanes and runs its untimed warm-up.
func (r *run) warmUp() error {
	st, sc, stream := r.st, r.sc, r.stream
	r.query = &lane{name: "query", clients: Clients}
	r.ingest = &lane{name: "ingest", clients: Clients, do: func(i int) (int, time.Duration, error) {
		files := stream.Delta(i)
		lat, err := st.Ingest(files)
		if err == nil {
			for _, f := range files {
				r.acked.Add(int64(len(f.Content)))
			}
		}
		return len(files), lat, err
	}}
	seconds := time.Duration(r.opt.Seconds * float64(time.Second))
	elapsedAtLeast := func(d time.Duration) func(time.Duration) bool {
		return func(e time.Duration) bool { return e >= d }
	}
	ingestsWarm := func(time.Duration) bool { return r.ingest.samples.Load() >= warmIngests }
	var warm func(time.Duration) bool

	switch r.name {
	case workload.QueryGraph:
		r.lanes = []*lane{r.query}
		r.query.do = func(i int) (int, time.Duration, error) {
			lat, err := sc.timedGraphQuery(st, stream.Graph(i))
			return 1, lat, err
		}
		// Every distinct request once per replica, one at a time: requests
		// alternate between the replicas, and the single spacer between
		// passes flips which replica a position lands on. After this each
		// replica's evidence memo holds the whole pool (it is sized to fit).
		n := stream.GraphDistinct()
		for pass := 0; pass < Replicas && r.ctx.Err() == nil; pass++ {
			for i := 0; i < n+1 && r.ctx.Err() == nil; i++ {
				_, _, err := r.query.do(i % n)
				sc.note(err)
			}
		}
		warm = elapsedAtLeast(min(seconds, 500*time.Millisecond))
	case workload.QueryFallback:
		r.lanes = []*lane{r.query}
		r.query.do = func(i int) (int, time.Duration, error) {
			text := stream.Fallback(i)
			a, lat, err := st.Query(text)
			if err == nil {
				err = sc.checkFallback(text, a)
			}
			return 1, lat, err
		}
		warm = elapsedAtLeast(min(seconds, 2*time.Second))
	case workload.IngestStream:
		r.lanes = []*lane{r.ingest}
		warm = ingestsWarm
	case workload.MixedRW:
		r.lanes = []*lane{r.query, r.ingest}
		r.query.clients, r.ingest.clients = 1, 1
		r.query.do = func(i int) (int, time.Duration, error) {
			batch := stream.Batch(i)
			texts := make([]string, len(batch))
			for j, q := range batch {
				texts[j] = q.Text
			}
			answers, lat, err := st.Batch(texts)
			for j := 0; err == nil && j < len(batch); j++ {
				if batch[j].Kind == workload.KindFallback {
					err = sc.checkFallback(batch[j].Text, answers[j])
				} else {
					err = sc.checkGraph(batch[j], answers[j])
				}
			}
			return len(batch), lat, err
		}
		warm = ingestsWarm
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", r.name, workload.Names())
	}
	runPhase(r.ctx, r.lanes, sc.note, warm)
	for _, l := range r.lanes {
		l.reset()
	}
	sc.resetF1()
	r.logf("warm-up done")
	return nil
}

// measured is what the measured phase consumed.
type measured struct {
	elapsed time.Duration
	cpu     time.Duration
	allocB  uint64
	allocs  uint64
	sorted  []time.Duration // primary lane latencies, ascending
}

// measure runs the measured phase. On a read-only workload it lasts
// opt.Seconds, and longer only while the lane is short of the samples its
// p95 needs. A workload that writes sends a fixed number of requests instead,
// a per-second quota for each second asked for, so that the work done and the
// state left behind — and with them every gated metric — are the same however
// fast the requests are served.
func (r *run) measure() measured {
	primary := r.lanes[0]
	seconds := time.Duration(r.opt.Seconds * float64(time.Second))
	done := func(e time.Duration) bool {
		return e >= maxStretch*seconds || (e >= seconds && primary.samples.Load() >= MinSamples)
	}
	quota := func(l *lane, perSecond float64, floor int64) {
		l.limit = l.next.Load() + max(int64(r.opt.Seconds*perSecond), floor)
	}
	switch r.name {
	case workload.IngestStream:
		quota(r.ingest, ingestPerSecond, MinSamples)
		done = nil
	case workload.MixedRW:
		quota(r.query, mixedBatchesPerSecond, MinSamples)
		quota(r.ingest, mixedIngestsPerSecond, 1)
		done = nil
	}
	if r.opt.PhaseStart != nil {
		r.opt.PhaseStart(r.st)
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := ProcessCPU()
	start := time.Now()
	runPhase(r.ctx, r.lanes, r.sc.note, done)
	ph := measured{elapsed: time.Since(start), cpu: ProcessCPU() - cpu0}
	runtime.ReadMemStats(&mem1)
	ph.allocB, ph.allocs = mem1.TotalAlloc-mem0.TotalAlloc, mem1.Mallocs-mem0.Mallocs
	ph.sorted = SortDurations(primary.lat)
	if r.opt.PhaseEnd != nil {
		r.opt.PhaseEnd(Phase{Stack: r.st, Corpus: r.corpus, Stream: r.stream, Ops: primary.units,
			Elapsed: primary.elapsed, Sorted: ph.sorted, NextDelta: int(r.ingest.next.Load())})
	}
	r.logf("measured %.2fs, %d requests", ph.elapsed.Seconds(), primary.attempted)
	return ph
}

// conclude applies the end-of-workload half of the correctness gate, shuts
// the stack down cleanly, measures recovery and assembles the result.
func (r *run) conclude(setupS float64, ph measured) (*Result, error) {
	res := &Result{Workload: r.name}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	primary := r.lanes[0]
	for _, l := range r.lanes {
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request attempted", r.name)
	}
	if share := float64(res.Failed) / float64(res.Attempted); share > maxFailedShare {
		violate("failed share %.4f over %.4f", share, maxFailedShare)
	}
	p50, err := Percentile(ph.sorted, 0.50)
	if err != nil {
		violate("%s lane: %v", primary.name, err)
	}
	p95, err := Percentile(ph.sorted, 0.95)
	if err != nil {
		violate("%s lane: %v", primary.name, err)
	}

	// Workloads that send no gold-bearing query score a fixed probe of the
	// graph sequence against the final state instead.
	if r.sc.f1.N() == 0 {
		for i := 0; i < min(probeQueries, r.stream.GraphDistinct()) && r.ctx.Err() == nil; i++ {
			r.sc.note(r.sc.graphQuery(r.st, r.stream.Graph(i)))
		}
	}

	// Every replica must have caught up and be live.
	if err := r.st.Settle(settleTimeout); err != nil {
		violate("%v", err)
	}
	var stats Stats
	if err := r.st.Get("/v1/stats", &stats); err != nil {
		violate("stats: %v", err)
	}
	digest := r.st.Sys.SnapshotDigest()
	lsn := r.st.Sys.ReplicationLSN()
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	dir := r.st.Dir
	err = r.st.Down()
	r.st = nil
	if err != nil {
		violate("shutdown: %v", err)
	}
	stored, err := DirBytes(dir)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	var reopenS []float64
	for k := 0; k < r.opt.Reopens; k++ {
		t0 := time.Now()
		sys, _, err := multirag.OpenDurable(dir, multirag.Config{Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: reopen: %w", r.name, err)
		}
		reopenS = append(reopenS, time.Since(t0).Seconds())
		if k == 0 {
			if got := sys.SnapshotDigest(); got != digest {
				violate("reopened digest %016x differs from pre-close %016x", got, digest)
			}
			if got := sys.ReplicationLSN(); got != lsn {
				violate("reopened LSN %d differs from pre-close %d", got, lsn)
			}
		}
		if err := sys.Close(); err != nil {
			violate("close after reopen: %v", err)
		}
		sys = nil
		debug.FreeOSMemory()
	}
	for _, v := range r.sc.errors() {
		violate("%s", v)
	}

	userBytes := r.corpus.FileBytes + r.acked.Load()
	ops := float64(max(primary.units, 1))
	res.EndToEnd = []Metric{
		{"setup_s", setupS, "s", r.opt.Setups},
		{"answer_f1", r.sc.f1.Value(), "ratio", r.sc.f1.N()},
		{"peak_rss_mb", rssMB, "MB", 1},
		{"stored_bytes_per_user_byte", float64(stored) / float64(userBytes), "ratio", 1},
		{"alloc_kb_per_op", float64(ph.allocB) / 1024 / ops, "KB", primary.units},
		{"allocs_per_op", float64(ph.allocs) / ops, "count", primary.units},
	}
	res.Info = []Metric{
		{"request_p50_ms", p50, "ms", len(ph.sorted)},
		{"request_p95_ms", p95, "ms", len(ph.sorted)},
		{"ops_s", primary.perSecond(), "1/s", primary.units},
		{"recovery_s", Median(reopenS), "s", len(reopenS)},
		{"cpu_ms_per_op", float64(ph.cpu) / float64(time.Millisecond) / ops, "ms", primary.units},
		{"phase_s", ph.elapsed.Seconds(), "s", 1},
		{"check.entities", float64(stats.Entities), "count", 1},
		{"check.triples", float64(stats.Triples), "count", 1},
		{"check.chunks", float64(stats.Chunks), "count", 1},
		{"check.lsn", float64(lsn), "count", 1},
	}
	if len(r.lanes) > 1 {
		// The writer lane of mixed-rw.
		w := r.lanes[1]
		if ws := SortDurations(w.lat); len(ws) > 0 {
			p50, _ := NearestRank(ws, 0.50)
			res.Info = append(res.Info,
				Metric{"writer_p50_ms", float64(p50) / float64(time.Millisecond), "ms", len(ws)},
				Metric{"writer_files_s", w.perSecond(), "1/s", w.units})
		}
	}
	return res, nil
}
