package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"multirag"
	"multirag/internal/fault"
)

// lifecycleQueries exercises every intent against the case-study corpus; the
// restart-resume test demands bit-identical answers across a shutdown.
var lifecycleQueries = []string{
	"What is the status of CA981?",
	"What is the delay reason of CA981?",
	"Do CA981 and MU588 have the same status?",
	"Anything new about CA981 today",
}

func TestDrainRejectsWithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Healthy first: requests succeed, probe passes.
	resp, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain query status = %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain health status = %d", resp.StatusCode)
	}

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/query", QueryRequest{Query: "What is the status of CA981?"}},
		{"/v1/query/batch", BatchRequest{Queries: []string{"What is the status of CA981?"}}},
		{"/v1/ingest", IngestRequest{Files: []IngestFile{{Domain: "d", Source: "s", Name: "n", Format: "text", Content: "x"}}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: status = %d body = %s", tc.path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while draining: no Retry-After header", tc.path)
		}
	}
	// The health probe fails so load balancers stop routing here.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health while draining: status = %d", resp.StatusCode)
	}
	// Reads that don't enqueue work keep serving (operators watch the drain).
	if resp, _ := getJSON(t, ts.URL+"/v1/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics while draining: status = %d", resp.StatusCode)
	}
}

// TestShedResponsesCarryRetryAfter: both sheds left before a request runs —
// a class whose share of the line is full, and /v1/ingest while the group
// committer's admission window is full — answer 429 with Retry-After.
func TestShedResponsesCarryRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 1, Classes: []Class{{Name: "interactive", QueueCap: 1}}})
	release := holdSlots(t, s)
	queued := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	waitUntil(t, "the first request is queued", func() bool { return queuedRequests(s) == 1 })
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query over the queue cap: status %d Retry-After %q (%s), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	release()
	if r := <-queued; r.code != http.StatusOK {
		t.Fatalf("queued query: status %d (%s), want 200", r.code, r.body)
	}

	s.pressure = func() (int, int) { return 64, 64 }
	resp, body = postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Files: []IngestFile{{
		Domain: "flights", Source: "late-feed", Name: "x", Format: "kg", Content: "CA981|gate|G9\n",
	}}})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated ingest: status %d Retry-After %q (%s), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
}

// TestCloseWaitsForExecutors pins the goroutine-leak fix: Close must not
// return while a request still holds an execution slot — here one running on
// its own handler goroutine — so a durable System can be closed immediately
// afterwards without racing in-flight query work.
func TestCloseWaitsForExecutors(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{Executors: 3})
	fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindHang})
	answered := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
	waitUntil(t, "the request reaches the hang", func() bool { return fault.Hits(fault.PointServeExecute) == 1 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		s.Close() // idempotent
		close(closed)
	}()
	// Once the scheduler is closed, Close can only be waiting for the slot.
	waitUntil(t, "Close closes the scheduler", func() bool {
		s.sched.mu.Lock()
		defer s.sched.mu.Unlock()
		return s.sched.closed
	})
	select {
	case <-closed:
		t.Fatal("Close returned while a request held its slot")
	default:
	}

	fault.Reset()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the request finished")
	}
	if r := <-answered; r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d (%s), want 200", r.code, r.body)
	}
}

// TestServeRestartResume is the end-to-end shutdown contract: ingest over
// HTTP into a durable system, drain + close + System.Close (the SIGTERM
// path), restart both layers from the same directory, and require the full
// query sweep to produce bit-identical answers with zero lost batches.
func TestServeRestartResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")

	sys, info, err := multirag.OpenDurable(dir, multirag.Config{Seed: 1})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	srv, err := New(Config{System: sys})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	if info.CheckpointLSN != 0 || info.RecordsReplayed != 0 {
		t.Fatalf("fresh dir reported recovery: %+v", info)
	}

	// Ingest the corpus over the real HTTP path, one acknowledged batch per
	// file: every 200 is a durability promise the restart must keep.
	for _, f := range corpusFiles() {
		req := IngestRequest{Files: []IngestFile{{
			Domain: f.Domain, Source: f.Source, Name: f.Name,
			Format: f.Format, Content: string(f.Content),
		}}}
		resp, body := postJSON(t, ts.URL+"/v1/ingest", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d body %s", f.Name, resp.StatusCode, body)
		}
	}
	before := askAll(t, ts.URL)
	statsBefore := sys.Stats()

	// SIGTERM sequence: drain, stop HTTP, stop executors, flush state.
	srv.Drain()
	ts.Close()
	srv.Close()
	if err := sys.Close(); err != nil {
		t.Fatalf("System.Close: %v", err)
	}

	// Restart from the same directory.
	sys2, info2, err := multirag.OpenDurable(dir, multirag.Config{Seed: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sys2.Close()
	if info2.CheckpointLSN == 0 || info2.RecordsReplayed != 0 || info2.Truncated {
		t.Fatalf("clean restart recovery = %+v, want checkpoint-only", info2)
	}
	srv2, err := New(Config{System: sys2})
	if err != nil {
		t.Fatalf("serve.New after restart: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() { ts2.Close(); srv2.Close() }()

	statsAfter := sys2.Stats()
	if statsBefore.Entities != statsAfter.Entities ||
		statsBefore.Triples != statsAfter.Triples ||
		statsBefore.HomologousNodes != statsAfter.HomologousNodes ||
		statsBefore.IsolatedClaims != statsAfter.IsolatedClaims ||
		statsBefore.Chunks != statsAfter.Chunks {
		t.Fatalf("corpus stats changed across restart:\n before %+v\n after  %+v", statsBefore, statsAfter)
	}
	after := askAll(t, ts2.URL)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("answers diverged across restart:\n before %+v\n after  %+v", before, after)
	}
}

// askAll runs the query sweep over HTTP and returns the decoded answers.
func askAll(t *testing.T, base string) []multirag.Answer {
	t.Helper()
	out := make([]multirag.Answer, len(lifecycleQueries))
	for i, q := range lifecycleQueries {
		resp, body := postJSON(t, base+"/v1/query", QueryRequest{Query: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %d body %s", q, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			t.Fatalf("query %q: decode: %v", q, err)
		}
	}
	return out
}
