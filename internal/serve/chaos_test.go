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

// TestChaosServeDeadlineDegraded pins the per-class degradation policy: a
// request whose deadline expires mid-evaluation (hang at the model call,
// released by the request context) comes back 200 + Degraded when the class
// opted in, and 504 when it did not — with the deadline/degraded counters
// recording each disposition.
func TestChaosServeDeadlineDegraded(t *testing.T) {
	defer fault.Reset()
	classes := []Class{
		{Name: "soft", Deadline: 30 * time.Millisecond, Degrade: true},
		{Name: "hard", Deadline: 30 * time.Millisecond, Degrade: false},
		{Name: IngestClass},
	}
	s, ts := newTestServer(t, Config{Classes: classes})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})

	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Query: "What is the status of CA981?", Class: "soft"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("soft class status %d: %s", resp.StatusCode, body)
	}
	var ans multirag.Answer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	if !ans.Degraded || ans.DegradedReason != "deadline" {
		t.Fatalf("soft class answer degraded=%v reason=%q, want deadline degrade",
			ans.Degraded, ans.DegradedReason)
	}

	resp, body = postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Query: "What is the status of CA981?", Class: "hard"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("hard class status %d, want 504: %s", resp.StatusCode, body)
	}

	snap := s.Metrics()
	var soft, hard ClassMetrics
	for _, c := range snap.Classes {
		switch c.Name {
		case "soft":
			soft = c
		case "hard":
			hard = c
		}
	}
	if soft.Degraded != 1 || soft.Completed != 1 {
		t.Fatalf("soft metrics degraded=%d completed=%d, want 1/1", soft.Degraded, soft.Completed)
	}
	if hard.DeadlineExceeded != 1 || hard.Completed != 0 {
		t.Fatalf("hard metrics deadline=%d completed=%d, want 1/0", hard.DeadlineExceeded, hard.Completed)
	}
}

// TestChaosServeRequestDeadlineMillis: a request's own deadline_ms tightens
// the class budget, and the handler sheds still-queued expiries as 504.
func TestChaosServeRequestDeadlineMillis(t *testing.T) {
	defer fault.Reset()
	_, ts := newTestServer(t, Config{Classes: []Class{{Name: "q", Degrade: true}, {Name: IngestClass}}})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindHang})
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Query: "What is the status of CA981?", Class: "q", DeadlineMillis: 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ans multirag.Answer
	if err := json.Unmarshal(body, &ans); err != nil || !ans.Degraded {
		t.Fatalf("want degraded answer under deadline_ms, got %s (err %v)", body, err)
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
	classes := []Class{{Name: "q", Degrade: true}, {Name: IngestClass}}
	for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
		t.Run(kind.String(), func(t *testing.T) {
			defer fault.Reset()
			_, ts := newTestServer(t, Config{Classes: classes})
			fault.Enable(fault.PointServeExecute, fault.Fault{Kind: kind, MaxHits: 1})
			resp, body := postJSON(t, ts.URL+"/v1/query",
				QueryRequest{Query: "What is the status of CA981?", Class: "q"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d under %s: %s", resp.StatusCode, kind, body)
			}
			var ans multirag.Answer
			if err := json.Unmarshal(body, &ans); err != nil || !ans.Degraded {
				t.Fatalf("want degraded answer under %s, got %s", kind, body)
			}
			// Budget spent: the executor must still be alive and serve cleanly.
			resp, body = postJSON(t, ts.URL+"/v1/query",
				QueryRequest{Query: "What is the status of CA981?", Class: "q"})
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
// name, and that body names the file without echoing its content.
func TestChaosServeIngestFailureStatus(t *testing.T) {
	defer fault.Reset()
	file := IngestFile{Domain: "flights", Source: "airport-api", Name: "late",
		Format: "kg", Content: "ZZ100|status|Scheduled\n"}
	noName := file
	noName.Name, noName.Content = "", strings.Repeat("payload!", 1<<17)
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
