package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(fault.PointLLMGenerate) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the hung injection point")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The server side finishes the request independently; wait for the
	// canceled/degraded disposition to land in metrics.
	deadline = time.Now().Add(5 * time.Second)
	for {
		snap := s.Metrics()
		var got int64
		for _, c := range snap.Classes {
			got += c.Canceled + c.Degraded
		}
		if got > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no canceled/degraded disposition recorded: %+v", snap.Classes)
		}
		time.Sleep(5 * time.Millisecond)
	}
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

// TestChaosServeExecutorHangShedsQueue hangs the executors themselves (the
// one injection point deliberately outside request contexts) and asserts the
// front door stays responsive the only way it can: queue timeouts with
// Retry-After. Reset releases the hang, everything drains, and no goroutine
// leaks.
func TestChaosServeExecutorHangShedsQueue(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()
	func() {
		s, ts := newTestServer(t, Config{QueueTimeout: 30 * time.Millisecond, Executors: 1})
		fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindHang})

		// First request takes the only slot and hangs in it; its handler waits
		// out the answer (claimed requests are never abandoned). Run it async.
		done := make(chan struct{})
		go func() {
			defer close(done)
			postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for fault.Hits(fault.PointServeExecute) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("executor never reached the hang")
			}
			time.Sleep(time.Millisecond)
		}

		// With the only slot hung, this request queues and can never be
		// claimed: it must shed via queue timeout, carrying the Retry-After hint.
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

// TestChaosServeBreakerHealth trips the generate breaker through the HTTP
// path and asserts /healthz turns degraded-with-reason (still 200: the
// server is impaired, not down) and /v1/metrics exposes the open breaker.
func TestChaosServeBreakerHealth(t *testing.T) {
	defer fault.Reset()
	sys := multirag.Open(multirag.Config{Seed: 1, BreakerFailures: 2, BreakerCooldown: time.Minute})
	if err := sys.IngestFiles(corpusFiles()...); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	s, ts := newTestServer(t, Config{System: sys, Classes: []Class{{Name: "q", Degrade: true}, {Name: IngestClass}}})
	fault.Enable(fault.PointLLMGenerate, fault.Fault{Kind: fault.KindError})

	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{Query: "What is the status of CA981?", Class: "q"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	fault.Reset()

	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, body)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("decode healthz: %v (%s)", err, body)
	}
	if health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("healthz = %+v, want degraded with reason", health)
	}

	snap := s.Metrics()
	var open bool
	for _, b := range snap.Breakers {
		if b.Name == "llm.generate" && b.State == "open" && b.Trips >= 1 {
			open = true
		}
	}
	if !open {
		t.Fatalf("metrics do not show the open breaker: %+v", snap.Breakers)
	}
}

// TestQueueTimeoutLeavesNoBlockedSender is the await-hygiene regression: when
// the handler's queue timeout wins the pending→timedOut CAS, nothing may ever
// send into the request's answer channel — not a later batch formation (the
// claim CAS must fail and drop it) and not scheduler close (its CAS fails
// too). A violated invariant would strand an executor on an unbuffered send
// or deliver an answer to a request that already 503'd.
func TestQueueTimeoutLeavesNoBlockedSender(t *testing.T) {
	cs := &classState{cfg: Class{Name: "c", QueueCap: 10}}
	sched := newScheduler(PolicyFCFS, []*classState{cs}, 4, 1)

	timedOut := &request{query: "a", class: cs, done: make(chan answerResult, 1)}
	if err := sched.enqueue(timedOut); err != nil {
		t.Fatal(err)
	}
	// The handler's queue timer wins the race.
	if !timedOut.state.CompareAndSwap(reqPending, reqTimedOut) {
		t.Fatal("timeout CAS failed on a pending request")
	}

	live := &request{query: "b", class: cs, done: make(chan answerResult, 1)}
	if err := sched.enqueue(live); err != nil {
		t.Fatal(err)
	}
	batch, ok := sched.next()
	if !ok {
		t.Fatal("scheduler closed unexpectedly")
	}
	if len(batch) != 1 || batch[0] != live {
		t.Fatalf("batch = %v, want only the live request", batch)
	}
	// The batch ran; give its slot back so close does not wait for it.
	sched.release()
	select {
	case <-timedOut.done:
		t.Fatal("something sent to a timed-out request's channel")
	default:
	}

	// close() must skip it too (CAS pending→timedOut fails).
	sched.close()
	select {
	case <-timedOut.done:
		t.Fatal("close sent to a timed-out request's channel")
	default:
	}
	// The live (claimed) request is owned by its executor: close must not
	// have sent errClosed to it either.
	select {
	case <-live.done:
		t.Fatal("close sent to a claimed request's channel")
	default:
	}
}
