package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"multirag/internal/fault"
)

// reply is one finished HTTP exchange; code 0 means the request never got a
// response (the transport error was reported with t.Error).
type reply struct {
	code int
	body []byte
}

// postAsync posts body as JSON from a goroutine of its own and delivers the
// reply on the returned channel.
func postAsync(t *testing.T, url string, body any) <-chan reply {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	out := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Errorf("POST %s: %v", url, err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read response: %v", err)
		}
		out <- reply{code: resp.StatusCode, body: b}
	}()
	return out
}

// holdSlots takes every execution slot of an idle server, so requests that
// arrive meanwhile queue for a slot; the returned func gives them back, each
// to the next waiter if one is queued.
func holdSlots(t *testing.T, s *Server) (release func()) {
	t.Helper()
	for i := 0; i < s.sched.limit; i++ {
		if w, err := s.sched.claim(s.defaultClass, 1); w != nil || err != nil {
			t.Fatalf("claim slot %d of %d: waiter=%v err=%v", i+1, s.sched.limit, w, err)
		}
	}
	return func() {
		for i := 0; i < s.sched.limit; i++ {
			s.sched.release()
		}
	}
}

// waitUntil yields until cond holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// queuedRequests is the number of queries waiting in the class queues.
func queuedRequests(s *Server) int {
	n := 0
	for _, d := range s.sched.depths() {
		n += d
	}
	return n
}

// discardWriter is a reusable http.ResponseWriter that keeps only the status,
// so a loop over ServeHTTP counts the server's allocations, not a recorder's.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// queryOnce returns a function that sends one /v1/query through
// Handler().ServeHTTP on the case-study corpus and returns its status. The
// request and writer are built once, so what each call allocates is the
// front door's and the engine's work.
func queryOnce(tb testing.TB) func() int {
	tb.Helper()
	s, err := New(Config{System: newCorpusSystem(tb)})
	if err != nil {
		tb.Fatalf("serve.New: %v", err)
	}
	tb.Cleanup(s.Close)
	h := s.Handler()
	body := []byte(`{"query":"What is the status of CA981?"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
	w := &discardWriter{h: http.Header{}}
	return func() int {
		rd.Reset(body)
		clear(w.h)
		h.ServeHTTP(w, req)
		return w.code
	}
}

// TestServeQueryAllocCeiling bounds the objects one idle /v1/query allocates
// end to end (admission, codec, engine). The ceiling sits a few objects above
// the measured 18 (x86-64, Go 1.24); the queued hand-off — a request, its
// channel, a derived context and a queue timer — and fresh codec state made
// it 33, so a request that no longer runs on its handler goroutine fails here,
// and so do logic-form parsing that allocates match slices again (+5) and
// answers that carry the three stage snapshots again (22).
func TestServeQueryAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	const ceiling = 21
	serve := queryOnce(t)
	if code := serve(); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if got := testing.AllocsPerRun(100, func() { serve() }); got > ceiling {
		t.Fatalf("%.0f allocs per /v1/query, ceiling %d", got, ceiling)
	}
}

// BenchmarkServeQuery is one /v1/query through Handler().ServeHTTP on the
// case-study corpus; allocs/op tracks the front door's objects per request
// (plus the engine's) outside the end-to-end run.
func BenchmarkServeQuery(b *testing.B) {
	serve := queryOnce(b)
	for b.Loop() {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d, want 200", code)
		}
	}
}

// BenchmarkServeSaturated is /v1/query through Handler().ServeHTTP on the
// case-study corpus from four goroutines per GOMAXPROCS, so requests find
// every slot busy and wait for one: ns/op and allocs/op are the saturated
// server's, as BenchmarkServeQuery's are the idle one's.
func BenchmarkServeSaturated(b *testing.B) {
	s, err := New(Config{System: newCorpusSystem(b)})
	if err != nil {
		b.Fatalf("serve.New: %v", err)
	}
	b.Cleanup(s.Close)
	h := s.Handler()
	body := []byte(`{"query":"What is the status of CA981?"}`)
	b.SetParallelism(4)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
		w := &discardWriter{h: http.Header{}}
		for pb.Next() {
			rd.Reset(body)
			clear(w.h)
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Errorf("status %d, want 200", w.code)
				return
			}
		}
	})
}

// TestClaimNeverJumpsQueue: a request that arrives while one of another
// class is queued goes through the line, even with a slot free, and the
// queued request runs first.
func TestClaimNeverJumpsQueue(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{Executors: 1})
	holdSlots(t, s) // the only slot; freed by hand below
	first := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?", Class: "interactive"})
	waitUntil(t, "the first request is queued", func() bool { return queuedRequests(s) == 1 })

	// Hold the next evaluation where it starts, then free the slot without
	// handing it to the waiter: a slot is free and a request is queued, the
	// state in which a claim must refuse.
	fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindHang})
	s.sched.mu.Lock()
	s.sched.running--
	s.sched.mu.Unlock()
	second := postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the delay reason of CA981?", Class: "batch"})
	waitUntil(t, "the second request queues behind the first", func() bool { return queuedRequests(s) == 2 })
	// Take the free slot back and release it the normal way: it goes to the
	// first queued request.
	s.sched.mu.Lock()
	s.sched.running++
	s.sched.mu.Unlock()
	s.sched.release()
	waitUntil(t, "one request runs and one is queued", func() bool {
		return fault.Hits(fault.PointServeExecute) == 1 && queuedRequests(s) == 1
	})
	if d := s.sched.depths(); d["interactive"] != 0 || d["batch"] != 1 {
		t.Fatalf("queue depths %v while the first evaluation runs: want the second request queued", d)
	}
	fault.Reset()
	for _, r := range []reply{<-first, <-second} {
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %s", r.code, r.body)
		}
	}
}

// TestEvaluationsNeverExceedExecutors: queries and whole batches share
// Config.Executors slots, so with every evaluation held inside a long latency
// fault exactly that many run and the rest queue.
func TestEvaluationsNeverExceedExecutors(t *testing.T) {
	defer fault.Reset()
	const executors, n = 2, 6
	s, ts := newTestServer(t, Config{Executors: executors})
	fault.Enable(fault.PointServeExecute, fault.Fault{Kind: fault.KindLatency, Latency: time.Hour})
	replies := make([]<-chan reply, n)
	for i := range replies {
		if i%2 == 0 {
			replies[i] = postAsync(t, ts.URL+"/v1/query", QueryRequest{Query: "What is the status of CA981?"})
		} else {
			replies[i] = postAsync(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: []string{"What is the status of CA981?"}})
		}
	}
	// Each request has either entered an evaluation (one hit) or queued.
	waitUntil(t, "every request is running or queued", func() bool {
		return fault.Hits(fault.PointServeExecute)+int64(queuedRequests(s)) == n
	})
	if got := fault.Hits(fault.PointServeExecute); got != executors {
		t.Fatalf("%d evaluations at once, want %d", got, executors)
	}
	fault.Reset()
	for _, ch := range replies {
		if r := <-ch; r.code != http.StatusOK {
			t.Fatalf("status %d: %s", r.code, r.body)
		}
	}
}

// TestTrailingDataRejected: a body must hold exactly one JSON value. Data
// after it — a second object, garbage — is a 400, not an answer to the first.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/query", `{"query":"What is the status of CA981?"} {"query":"x"} garbage`},
		{"/v1/query/batch", `{"queries":["What is the status of CA981?"]} garbage`},
		{"/v1/ingest", `{"files":[{"domain":"flights","source":"gate-feed","name":"gates","format":"kg","content":"CA981|gate|G12\n"}]} {}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.path, err)
		}
		var er ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(er.Error, "bad JSON") {
			t.Fatalf("%s with trailing data: status %d error %q (%v), want 400 bad JSON", c.path, resp.StatusCode, er.Error, derr)
		}
	}
}

// TestWriteJSON: a value that cannot be encoded is answered 500 with an
// ErrorResponse naming the failure, never its status with an empty body; one
// that can is sent with its status, byte for byte as json.Encoder with HTML
// escaping off writes it.
func TestWriteJSON(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, math.NaN())
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusInternalServerError ||
		!strings.Contains(er.Error, "encode response") {
		t.Fatalf("unencodable value: status %d body %q (%v), want 500 naming the encode failure", w.Code, w.Body, err)
	}

	v := ErrorResponse{Error: "<a & b>"}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusCreated, v)
	if w.Code != http.StatusCreated || w.Header().Get("Content-Type") != "application/json" || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d type %q body %q, want 201 application/json %q",
			w.Code, w.Header().Get("Content-Type"), w.Body, want.Bytes())
	}
}
