package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multirag"
	"multirag/internal/par"
	"multirag/internal/serve"
)

// The -load and -ingest-load harnesses measure the real serving path: every
// request travels through the HTTP front door (admission, batch formation,
// bounded queues), either an in-process `multirag serve` on a loopback
// listener or an external server named by -target.

// startLoadServer brings up an in-process front door over sys on a loopback
// listener and returns its base URL plus a shutdown func. Admission is left
// unlimited — the harness offers the load, the bounded queues and committer
// backpressure do the shedding — so rejected counts reflect real saturation,
// not a self-imposed rate cap.
func startLoadServer(sys *multirag.System, policy string) (string, func()) {
	srv, err := serve.New(serve.Config{
		System:       sys,
		Policy:       policy,
		QueueTimeout: 30 * time.Second,
	})
	if err != nil {
		fatal("load server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("load server listen: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Close()
		srv.Close()
	}
}

// loadClient builds an HTTP client whose connection pool matches the
// harness concurrency, so keep-alive reuse works instead of a dial per
// request.
func loadClient(conns int) *http.Client {
	if conns < 2 {
		conns = 2
	}
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * conns,
		MaxIdleConnsPerHost: 2 * conns,
	}}
}

// postStatus POSTs one JSON body and returns the HTTP status, the server's
// Retry-After hint in seconds (0 when absent) and the response body, fully
// read so the connection is reusable.
func postStatus(client *http.Client, url string, body any) (int, time.Duration, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, 0, nil, err
	}
	respBody, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	var retryAfter time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, respBody, nil
}

// fetchMetrics reads the server's /v1/metrics snapshot.
func fetchMetrics(client *http.Client, base string) (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// loadOutcome classifies one request of a load run. Degraded answers,
// deadline expiries and cancellations are soft outcomes — the server behaved
// as designed under pressure — reported separately from hard failures
// (transport errors, unexpected statuses).
type loadOutcome int32

const (
	outcomeOK       loadOutcome = iota
	outcomeDegraded             // 200 with Answer.Degraded: partial answer delivered
	outcomeRejected             // 429: admission or queue bound
	outcomeTimedOut             // 503: queue timeout / draining / canceled
	outcomeDeadline             // 504: end-to-end deadline exceeded
	outcomeError                // transport failure or unexpected status
)

func classify(status int, body []byte, err error) loadOutcome {
	switch {
	case err != nil:
		return outcomeError
	case status == http.StatusOK:
		var ans struct{ Degraded bool }
		if json.Unmarshal(body, &ans) == nil && ans.Degraded {
			return outcomeDegraded
		}
		return outcomeOK
	case status == http.StatusTooManyRequests:
		return outcomeRejected
	case status == http.StatusServiceUnavailable:
		return outcomeTimedOut
	case status == http.StatusGatewayTimeout:
		return outcomeDeadline
	default:
		return outcomeError
	}
}

// maxQueryRetries bounds how often a shed query (a response carrying
// Retry-After) is retried before its outcome is recorded as-is.
const maxQueryRetries = 2

// postQuery runs one query request, honoring the server's Retry-After hint
// on shed responses: a 429/503 that carries the hint is retried after
// sleeping it out (bounded by maxQueryRetries), so well-behaved backoff is
// what the harness measures — the sleeps land in the request's latency, not
// outside it. Each retry increments retries.
func postQuery(client *http.Client, url string, req serve.QueryRequest, retries *atomic.Int64) loadOutcome {
	for attempt := 0; ; attempt++ {
		status, retryAfter, body, err := postStatus(client, url, req)
		oc := classify(status, body, err)
		if (oc != outcomeRejected && oc != outcomeTimedOut) ||
			retryAfter <= 0 || attempt >= maxQueryRetries {
			return oc
		}
		retries.Add(1)
		time.Sleep(retryAfter)
	}
}

// runLoad drives the workload through the HTTP serving path and reports the
// per-request latency distribution — p50/p95/p99 by the shared nearest-rank
// helper, plus rejected/timed-out counts and the server's own per-class view.
//
// With -qps 0 a closed loop keeps exactly `workers` requests in flight. With
// a target rate, every request is scheduled at the absolute instant
// start + i*interval and launched by its own goroutine: a lagging request
// can never push later launch times (no cumulative drift), and because each
// latency is measured from the *scheduled* instant, coordinated omission
// shows up in the tail instead of being hidden. The report states offered
// vs. achieved rate so a harness that could not sustain the offered rate is
// visible rather than silently degraded.
func runLoad(sys *multirag.System, queries []string, qps float64, workers int, target, policy, class string, deadline time.Duration) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	base := target
	if base == "" {
		var shutdown func()
		base, shutdown = startLoadServer(sys, policy)
		defer shutdown()
	}
	client := loadClient(workers)
	url := base + "/v1/query"
	deadlineMillis := int64(deadline / time.Millisecond)

	n := len(queries)
	lat := make([]time.Duration, n)
	outcomes := make([]loadOutcome, n)
	var shedRetries atomic.Int64
	start := time.Now()
	if qps <= 0 {
		par.ForEach(workers, n, func(i int) {
			t0 := time.Now()
			outcomes[i] = postQuery(client, url,
				serve.QueryRequest{Query: queries[i], Class: class, DeadlineMillis: deadlineMillis}, &shedRetries)
			lat[i] = time.Since(t0)
		})
	} else {
		interval := time.Duration(float64(time.Second) / qps)
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int, sched time.Time) {
				defer wg.Done()
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				outcomes[i] = postQuery(client, url,
					serve.QueryRequest{Query: queries[i], Class: class, DeadlineMillis: deadlineMillis}, &shedRetries)
				// Latency from the scheduled instant: queueing delay the
				// system caused — including launch lateness — counts.
				lat[i] = time.Since(sched)
			}(i, start.Add(time.Duration(i)*interval))
		}
		wg.Wait()
	}
	total := time.Since(start)

	var okLat []time.Duration
	counts := map[loadOutcome]int{}
	for i, o := range outcomes {
		counts[o]++
		if o == outcomeOK {
			okLat = append(okLat, lat[i])
		}
	}

	mode := "closed loop"
	if qps > 0 {
		mode = fmt.Sprintf("open loop @ %.0f qps offered", qps)
	}
	fmt.Printf("load test: %d requests over HTTP (%s), %s, %d workers, policy %s, class %s\n",
		n, base, mode, workers, policy, class)
	if deadline > 0 {
		fmt.Printf("  deadline: %v per request (deadline_ms)\n", deadline)
	}
	achieved := float64(n) / total.Seconds()
	if qps > 0 {
		fmt.Printf("  rate: offered %.0f qps, achieved %.0f qps (%.1f%%) in %v\n",
			qps, achieved, 100*achieved/qps, total.Round(time.Millisecond))
	} else {
		fmt.Printf("  throughput: %.0f qps achieved in %v\n", achieved, total.Round(time.Millisecond))
	}
	fmt.Printf("  outcomes: %d ok, %d degraded (200 partial), %d rejected (429), %d timed out (503), %d deadline exceeded (504), %d errors; %d shed retries honored Retry-After\n",
		counts[outcomeOK], counts[outcomeDegraded], counts[outcomeRejected],
		counts[outcomeTimedOut], counts[outcomeDeadline], counts[outcomeError], shedRetries.Load())
	if len(okLat) > 0 {
		qs := serve.Quantiles(okLat, 0.50, 0.95, 0.99, 1)
		fmt.Printf("  latency: p50 %v  p95 %v  p99 %v  max %v\n",
			qs[0].Round(time.Microsecond), qs[1].Round(time.Microsecond),
			qs[2].Round(time.Microsecond), qs[3].Round(time.Microsecond))
	}
	printServerView(client, base)
}

// Retry policy for shed ingest requests: exponential backoff from
// ingestRetryBase doubling per attempt, equal-jittered, never under the
// server's Retry-After hint and never over ingestRetryCap. A file still shed
// after maxIngestRetries retries is a hard failure, counted separately.
const (
	ingestRetryBase  = 2 * time.Millisecond
	ingestRetryCap   = time.Second
	maxIngestRetries = 20
)

// ingestRetryDelay computes the wait before retry `attempt` (0-based).
func ingestRetryDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := ingestRetryBase << min(attempt, 16)
	if d <= 0 || d > ingestRetryCap {
		d = ingestRetryCap
	}
	d = d/2 + rand.N(d/2+1) // equal jitter: [d/2, d]
	if retryAfter > d {
		d = retryAfter
	}
	return min(d, ingestRetryCap)
}

// postIngest posts one file, retrying 429 (committer backpressure) and 503
// (draining / queue timeout) sheds with capped exponential backoff + jitter,
// honoring the server's Retry-After hint. Returns ok=false with a nil error
// when the retry budget is exhausted — a hard failure the caller counts —
// and a non-nil error only for transport failures and unexpected statuses,
// which abort the whole run.
func postIngest(client *http.Client, url string, req serve.IngestRequest, stop *atomic.Bool, r429, r503 *atomic.Int64) (bool, error) {
	for attempt := 0; ; attempt++ {
		status, retryAfter, _, err := postStatus(client, url, req)
		switch {
		case err != nil:
			return false, err
		case status == http.StatusOK:
			return true, nil
		case status == http.StatusTooManyRequests:
			r429.Add(1)
		case status == http.StatusServiceUnavailable:
			r503.Add(1)
		default:
			return false, fmt.Errorf("HTTP %d", status)
		}
		if attempt >= maxIngestRetries || stop.Load() {
			return false, nil
		}
		time.Sleep(ingestRetryDelay(attempt, retryAfter))
	}
}

// runIngestLoad drives n synthetic files through the HTTP ingest endpoint
// from a shared stream drained by `producers` goroutines — the ingest mirror
// of the query -load mode. Shed requests (429/503) are retried with capped
// exponential backoff honoring Retry-After, so a rejection delays the file
// instead of silently shrinking the offered load; each request's latency
// spans admission, every backoff wait and the group-commit publish. Retry
// counts are reported separately from hard failures (files still shed after
// the retry budget). A failing producer does not abort the process mid-test:
// the first transport error is recorded, every producer drains, and the
// error is reported from the main goroutine.
func runIngestLoad(sys *multirag.System, n, producers int, target string) {
	if producers <= 0 {
		producers = runtime.GOMAXPROCS(0)
	}
	base := target
	if base == "" {
		var shutdown func()
		base, shutdown = startLoadServer(sys, serve.PolicyFCFS)
		defer shutdown()
	}
	client := loadClient(producers)
	url := base + "/v1/ingest"

	lat := make([]time.Duration, n)
	var (
		next       atomic.Int64
		stop       atomic.Bool
		retries429 atomic.Int64
		retries503 atomic.Int64
		hardFails  atomic.Int64
		errOnce    sync.Once
		firstErr   error
	)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(producers)
	for w := 0; w < producers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				ok, err := postIngest(client, url, ingestRequest(i), &stop, &retries429, &retries503)
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("ingest file %d: %w", i, err)
						stop.Store(true)
					})
					return
				}
				if stop.Load() {
					return
				}
				if !ok {
					hardFails.Add(1)
					continue
				}
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	total := time.Since(start)
	if firstErr != nil {
		fatal("ingest-load: %v", firstErr)
	}

	st := sys.Stats()
	if target != "" {
		// The corpus lives behind -target; read its stats over the wire.
		if remote, err := fetchStats(client, base); err == nil {
			st = remote
		}
	}
	// Quantiles over committed files only; hard-failed files have no commit.
	okLat := make([]time.Duration, 0, n)
	for _, d := range lat {
		if d > 0 {
			okLat = append(okLat, d)
		}
	}
	committed := int64(len(okLat))
	fmt.Printf("ingest load test: %d files over HTTP (%s), %d producers\n", n, base, producers)
	fmt.Printf("  throughput: %.0f files/s in %v (%d committed, %d triples, %d chunks indexed)\n",
		float64(committed)/total.Seconds(), total.Round(time.Millisecond), committed, st.Triples, st.Chunks)
	fmt.Printf("  sheds retried: %d backpressure (429), %d unavailable (503); hard failures: %d files dropped after %d retries each\n",
		retries429.Load(), retries503.Load(), hardFails.Load(), maxIngestRetries)
	if len(okLat) > 0 {
		qs := serve.Quantiles(okLat, 0.50, 0.95, 0.99, 1)
		fmt.Printf("  commit latency: p50 %v  p95 %v  p99 %v  max %v\n",
			qs[0].Round(time.Microsecond), qs[1].Round(time.Microsecond),
			qs[2].Round(time.Microsecond), qs[3].Round(time.Microsecond))
	}
	printServerView(client, base)
}

// fetchStats reads the served corpus statistics.
func fetchStats(client *http.Client, base string) (multirag.Stats, error) {
	var st multirag.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// printServerView reports the server's own per-class accounting — the same
// numbers /v1/metrics serves in production, computed by the shared
// nearest-rank percentile helper.
func printServerView(client *http.Client, base string) {
	snap, err := fetchMetrics(client, base)
	if err != nil {
		fmt.Printf("  (metrics endpoint unavailable: %v)\n", err)
		return
	}
	fmt.Printf("  server view (policy %s, Jain fairness %.3f):\n", snap.Policy, snap.JainFairness)
	for _, c := range snap.Classes {
		if c.Completed+c.RejectedAdmission+c.RejectedQueue+c.TimedOut+c.Failed+
			c.DeadlineExceeded+c.Canceled == 0 {
			continue
		}
		fmt.Printf("    %-12s %6d ok (%d degraded)  %4d rejected  %4d timeout  %4d deadline  %4d canceled  p50 %s  p95 %s  p99 %s\n",
			c.Name, c.Completed, c.Degraded, c.RejectedAdmission+c.RejectedQueue, c.TimedOut,
			c.DeadlineExceeded, c.Canceled,
			fmtMicros(c.P50Micros), fmtMicros(c.P95Micros), fmtMicros(c.P99Micros))
	}
	for _, b := range snap.Breakers {
		if b.Trips > 0 || b.State != "closed" {
			fmt.Printf("    breaker %-14s state=%s trips=%d fast-fails=%d\n",
				b.Name, b.State, b.Trips, b.FastFails)
		}
	}
	if snap.Durability.Durable && snap.Durability.WALAppendErr != "" {
		fmt.Printf("    durability: WAL append latched: %s\n", snap.Durability.WALAppendErr)
	}
}

func fmtMicros(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}

// ingestRequest synthesises the i-th file of the ingest-load stream as an
// HTTP payload: a small kg-format feed whose subjects recur across the
// stream, so homologous groups keep growing the way repeated multi-source
// feeds grow them in practice.
func ingestRequest(i int) serve.IngestRequest {
	subj := fmt.Sprintf("Flight %d", i%200)
	content := fmt.Sprintf("%s|status|%s\n%s|gate|G%d\n%s|delay_reason|%s\n",
		subj, []string{"On time", "Delayed", "Boarding"}[i%3],
		subj, i%40,
		subj, []string{"Weather", "Crew", "Traffic"}[i%3])
	return serve.IngestRequest{Files: []serve.IngestFile{{
		Domain:  "flights",
		Source:  fmt.Sprintf("feed-%d", i%8),
		Name:    fmt.Sprintf("update-%d", i),
		Format:  "kg",
		Content: content,
	}}}
}
