package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// waitServeGoroutines is the serve-side no-leak watermark (see the core
// chaos suite for the rationale).
func waitServeGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 10
	waitUntil(t, fmt.Sprintf("goroutines drain back to %d (+%d)", base, slack), func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+slack
	})
}

// TestChaosServeDeadlineDegraded pins the degradation policy: a request
// whose deadline expires mid-evaluation (hang at the model call, released by
// the request context) comes back 200 + Degraded from a server with Degrade
// on, and 504 from one with it off — with the deadline/degraded counters
// recording each disposition.
func TestChaosServeDeadlineDegraded(t *testing.T) {
	defer fault.Reset()
	soft, softTS := newTestServer(t, Config{Deadline: 30 * time.Millisecond, Degrade: true})
	hard, hardTS := newTestServer(t, Config{Deadline: 30 * time.Millisecond, Degrade: false})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})

	resp, body := postJSON(t, softTS.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Degrade on: status %d: %s", resp.StatusCode, body)
	}
	var ans multirag.Answer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if !ans.Degraded || ans.DegradedReason != "deadline" {
		t.Fatalf("Degrade on: answer degraded=%v reason=%q, want deadline degrade",
			ans.Degraded, ans.DegradedReason)
	}

	resp, body = postJSON(t, hardTS.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("Degrade off: status %d, want 504: %s", resp.StatusCode, body)
	}

	if c := soft.Metrics().Classes[interactive]; c.Degraded != 1 || c.Completed != 1 {
		t.Fatalf("Degrade on: metrics degraded=%d completed=%d, want 1/1", c.Degraded, c.Completed)
	}
	if c := hard.Metrics().Classes[interactive]; c.DeadlineExceeded != 1 || c.Completed != 0 {
		t.Fatalf("Degrade off: metrics deadline=%d completed=%d, want 1/0", c.DeadlineExceeded, c.Completed)
	}
}

// TestChaosServeRequestDeadlineMillis: a request's own deadline_ms tightens
// the server's budget, and the handler sheds still-queued expiries as 504.
func TestChaosServeRequestDeadlineMillis(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{Degrade: true})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Query: "What is the status of CA981?", DeadlineMillis: 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ans multirag.Answer
	if err := json.Unmarshal(body, &ans); err != nil || !ans.Degraded {
		t.Fatalf("want degraded answer under deadline_ms, got %s (err %v)", body, err)
	}
}

// TestChaosServeHugeDeadlineMillisKeepsServerDeadline: a deadline_ms so large
// that its product with a millisecond overflows time.Duration — to a negative
// budget, or to 0 — still cannot extend the server's deadline. With the model
// call hung, the request ends at the server's 30 ms as a 504, well inside the
// test's own bound, instead of running without a timeout.
func TestChaosServeHugeDeadlineMillisKeepsServerDeadline(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{Deadline: 30 * time.Millisecond})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})
	for i, ms := range []int64{9223372036855, 1 << 62} {
		pending := postAsync(t, ts.URL+"/v1/query",
			QueryRequest{Query: "What is the status of CA981?", DeadlineMillis: ms})
		select {
		case r := <-pending:
			if r.code != http.StatusGatewayTimeout {
				t.Fatalf("deadline_ms %d: status %d, want 504: %s", ms, r.code, r.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("deadline_ms %d: no answer after 5 s under a 30 ms server deadline", ms)
		}
		if got := s.Metrics().Classes[interactive].DeadlineExceeded; got != int64(i+1) {
			t.Fatalf("deadline_ms %d: deadline_exceeded = %d, want %d", ms, got, i+1)
		}
	}
}

// TestChaosServeFailedBatchCountsNoCompletion: a /v1/query/batch that is
// answered with an error delivers none of its answers, so none of its
// queries counts as completed. The first query falls back to chunk retrieval
// and succeeds; the second's evidence lookup fails. With one worker the
// queries run in order, and with Degrade off the batch is a 500 that counts
// one failure and no completion.
func TestChaosServeFailedBatchCountsNoCompletion(t *testing.T) {
	defer fault.Reset()
	sys := multirag.Open(multirag.Config{Seed: 1, Workers: 1})
	if err := sys.IngestFiles(corpusFiles()...); err != nil {
		t.Fatalf("ingest corpus: %v", err)
	}
	s, ts := newTestServer(t, Config{System: sys})
	fault.Enable(fault.PointEvidence, fault.Fault{Kind: fault.KindError})
	resp, body := postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: []string{
		"Anything new about CA981 today",
		"What is the status of CA981?",
	}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if c := s.Metrics().Classes[interactive]; c.Completed != 0 || c.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 0/1", c.Completed, c.Failed)
	}
}

// TestChaosServeClientDisconnect: canceling the HTTP request mid-evaluation
// cancels the query context; the evaluation wraps up promptly (hang released
// by the disconnect) and the canceled counter records it.
func TestChaosServeClientDisconnect(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})

	data, err := json.Marshal(QueryRequest{Query: "What is the status of CA981?"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
		bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait until the evaluation is inside the hang, then disconnect.
	waitUntil(t, "the query reaches the hung injection point", func() bool {
		return fault.Hits(fault.PointLLMGenerate) > 0
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The server side finishes the request independently; wait for the
	// canceled/degraded disposition to land in metrics.
	waitUntil(t, "a canceled/degraded disposition is recorded", func() bool {
		for _, c := range s.Metrics().Classes {
			if c.Canceled+c.Degraded > 0 {
				return true
			}
		}
		return false
	})
}

// TestChaosServeExecutorFaults crosses the executor-level injection point
// with error and panic faults: both are contained into degraded answers —
// the executor goroutine survives and keeps serving. The error cell uses
// MaxHits so the follow-up request proves the batch loop is still alive.
func TestChaosServeExecutorFaults(t *testing.T) {
	defer fault.Reset()
	for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
		t.Run(kind.String(), func(t *testing.T) {
			defer fault.Reset()
			_, ts := newTestServer(t, Config{Degrade: true})
			fault.Enable(fault.PointServeExecute, fault.Fault{Kind: kind, MaxHits: 1})
			resp, body := postJSON(t, ts.URL+"/v1/query",
				QueryRequest{Query: "What is the status of CA981?"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d under %s: %s", resp.StatusCode, kind, body)
			}
			var ans multirag.Answer
			if err := json.Unmarshal(body, &ans); err != nil || !ans.Degraded {
				t.Fatalf("want degraded answer under %s, got %s", kind, body)
			}
			// Budget spent: the executor must still be alive and serve cleanly.
			resp, body = postJSON(t, ts.URL+"/v1/query",
				QueryRequest{Query: "What is the status of CA981?"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &ans); err != nil || ans.Degraded {
				t.Fatalf("follow-up answer still degraded: %s", body)
			}
		})
	}
}

// TestChaosServeExecutorHangShedsQueue hangs the evaluation in every
// execution slot (the one injection point deliberately outside request
// contexts) and asserts the front door stays responsive the only way it can:
// queue timeouts with Retry-After. Reset releases the hang, everything
// drains, and no goroutine leaks.
func TestChaosServeExecutorHangShedsQueue(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()
	func() {
		s, ts := newTestServer(t, Config{QueueTimeout: 30 * time.Millisecond, Executors: 1})
		fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindHang})

		// First request takes the only slot and hangs in it. Run it async.
		done := make(chan struct{})
		go func() {
			defer close(done)
			postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
		}()
		waitUntil(t, "the first request reaches the hang", func() bool {
			return fault.Hits(fault.PointServeExecute) > 0
		})

		// With the only slot hung, this request queues and is never granted
		// one: it must shed via queue timeout, carrying the Retry-After hint.
		resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the delay reason of CA981?"})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queued request status %d, want 503: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("queue-timeout 503 missing Retry-After")
		}
		snap := s.Metrics()
		var timedOut int64
		for _, c := range snap.Classes {
			timedOut += c.TimedOut
		}
		if timedOut == 0 {
			t.Fatalf("no queue timeout recorded: %+v", snap.Classes)
		}

		fault.Reset()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("hung request never drained after Reset")
		}
		// Close inside the scope so the watermark below sees the drained
		// state (Close is idempotent; the t.Cleanup close is a no-op).
		ts.Close()
		s.Close()
	}()
	http.DefaultClient.CloseIdleConnections()
	waitServeGoroutines(t, base)
}

// TestChaosServeIngestFailureStatus: /v1/ingest answers 500 when the files
// were accepted but the commit failed — an injected commit fault, or a failed
// WAL append on a durable server — and the same request then succeeds; it
// answers 400 only when the request is at fault, here a 1 MiB file with no
// name or a file with a 1 MiB name, and that body names the file without
// echoing its content or the whole name.
func TestChaosServeIngestFailureStatus(t *testing.T) {
	defer fault.Reset()
	file := IngestFile{Domain: "flights", Source: "airport-api", Name: "late",
		Format: "kg", Content: "ZZ100|status|Scheduled\n"}
	noName := file
	noName.Name, noName.Content = "", strings.Repeat("payload!", 1<<17)
	longName := file
	longName.Name = strings.Repeat("n", 1<<20)
	cases := []struct {
		name    string
		point   string // armed with one injected error; "" arms nothing
		durable bool
		file    IngestFile
		want    int
	}{
		{"commit", fault.PointCommit, false, file, http.StatusInternalServerError},
		{"wal-append", fault.PointWALAppend, true, file, http.StatusInternalServerError},
		{"missing-field", "", false, noName, http.StatusBadRequest},
		{"overlong-name", "", false, longName, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer fault.Reset()
			var cfg Config
			if c.durable {
				cfg.System = newDurableCorpusSystem(t)
			}
			_, ts := newTestServer(t, cfg)
			if c.point != "" {
				fault.Enable(c.point, fault.Fault{Kind: fault.KindError, MaxHits: 1})
			}
			req := IngestRequest{Files: []IngestFile{c.file}}
			resp, body := postJSON(t, ts.URL+"/v1/ingest", req)
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || resp.StatusCode != c.want || er.Error == "" {
				t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, c.want, body)
			}
			if len(body) > 512 || strings.Contains(er.Error, "payload") {
				t.Fatalf("%d-byte error body echoes the request: %.200s", len(body), body)
			}
			if c.point == "" {
				return
			}
			if !strings.Contains(er.Error, fault.ErrInjected.Error()) {
				t.Fatalf("500 body %q does not carry the commit's error", er.Error)
			}
			if resp, body := postJSON(t, ts.URL+"/v1/ingest", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("retry after the failed commit: status %d: %s", resp.StatusCode, body)
			}
		})
	}
}
