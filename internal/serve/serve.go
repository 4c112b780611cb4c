// Package serve is the production front door of a MultiRAG deployment: an
// HTTP/JSON API over System.AskEach / System.IngestFiles with a fixed count
// of execution slots (Config.Executors), one FIFO line of requests waiting
// for a slot, in which each SLO class may hold a bounded number of queries,
// and per-class latency reporting on a metrics endpoint. Every request runs
// on its own handler goroutine: one that finds the line empty and a slot
// free runs at once, and one that does not waits in the line until a
// finishing request hands it a slot, in arrival order whatever its class.
//
// Endpoints:
//
//	POST /v1/query        {"query": "...", "class": "interactive"}   → Answer
//	POST /v1/query/batch  {"queries": [...], "class": "..."}         → {"answers": [...]}
//	POST /v1/ingest       {"files": [{domain,source,name,format,content}, ...]}
//	GET  /v1/stats        corpus statistics
//	GET  /v1/metrics      per-class p50/p95/p99, queue depths
//	GET  /healthz
//
// Requests run under end-to-end deadlines: each SLO class may declare a
// budget (Class.Deadline) that starts at admission — queue wait counts — and
// a request may tighten it with "deadline_ms". The context also cancels on
// client disconnect. A request whose budget expires while queued is shed; one
// that expires mid-evaluation stops promptly and, when the class opts into
// Class.Degrade, is answered 200 with Answer.Degraded and whatever evidence
// completed (otherwise 504). /healthz reports ok/degraded/draining with a
// reason, and /v1/metrics carries deadline/cancel/degraded counters and
// durability health.
//
// Excess load is shed, never buffered without bound: a request body larger
// than maxBodyBytes is rejected with 413, a query longer than maxQueryBytes
// with 400, a request whose class already has QueueCap queries in the line
// is rejected with 429, one that waits in the line past the configured
// timeout gets 503, and ingest requests are rejected with 429 while the
// group committer's admission window (core.IngestPressure) is saturated —
// the serving layer's backpressure is wired into the ingest pipeline's
// rather than layered blindly on top of it. Every shed response carries a
// Retry-After hint so well-behaved clients back off instead of hammering.
//
// Shutdown is two-phase: Drain flips the server into draining — new work is
// rejected with 503 + Retry-After and the health endpoint fails so load
// balancers stop routing here — while queued and in-flight requests finish
// normally; Close then rejects whatever is still queued and waits until no
// request holds a slot, so by the time Close returns no request can touch the
// engine again and the caller may safely flush and close a durable System
// underneath.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"multirag"
	"multirag/internal/fault"
)

// Class declares one SLO class of the front door. Requests select a class by
// name; unnamed requests fall into the first configured class.
type Class struct {
	// Name identifies the class ("interactive", "batch", "ingest", ...).
	Name string `json:"name"`
	// QueueCap bounds the class's queries waiting in the line for a slot (a
	// /v1/query/batch counts each of its queries); arrivals that find it
	// reached are rejected with 429 (default 256).
	QueueCap int `json:"queue_cap"`
	// Deadline is the class's end-to-end budget per request, counted from
	// admission — queue wait spends the same budget as evaluation. A request
	// may tighten (never extend) it with its own deadline_ms. <= 0 means no
	// deadline; the client disconnect signal still cancels.
	Deadline time.Duration `json:"deadline,omitempty"`
	// Degrade selects graceful degradation: a request whose budget runs out
	// mid-evaluation is answered 200 with Answer.Degraded set and whatever
	// evidence completed, instead of failing with 504. Queue-timeout and
	// still-queued deadline expiry shed as before — there is no partial
	// answer to deliver yet.
	Degrade bool `json:"degrade,omitempty"`
}

// DefaultClasses is the stock three-class SLO layout: interactive and batch
// query traffic, counted apart, plus the class /v1/ingest is counted under.
func DefaultClasses() []Class {
	return []Class{{Name: "interactive"}, {Name: "batch"}, {Name: IngestClass}}
}

// IngestClass names the class /v1/ingest's outcomes are counted under.
const IngestClass = "ingest"

// Config assembles a Server.
type Config struct {
	// System is the deployment to serve. Required.
	System *multirag.System
	// Classes declares the SLO classes (default DefaultClasses). The first
	// entry is the default class; the entry named IngestClass (added
	// automatically if absent) counts /v1/ingest.
	Classes []Class
	// QueueTimeout bounds how long a request may wait for a slot before
	// failing with 503 (default 5s; < 0 disables). It bounds only the wait:
	// a request that gets its slot runs under its deadline alone.
	QueueTimeout time.Duration
	// Executors is the number of execution slots (default
	// runtime.GOMAXPROCS(0), the engine's own Workers default): never more
	// than this many engine calls run at once. A /v1/query or a whole
	// /v1/query/batch is one engine call.
	Executors int
	// Recovery, when set, is the startup crash-recovery report of the durable
	// System being served; it is surfaced on /v1/metrics so operators can see
	// what the process found on disk without grepping logs.
	Recovery *multirag.RecoveryInfo
	// Replicas, when set, routes engine calls across the replica set instead
	// of always serving from the primary. Replication keeps replicas
	// byte-identical to the primary, so answers are unchanged; routing buys
	// read scale-out. The server does not own the set — the caller closes it
	// (after Close, before System.Close).
	Replicas *multirag.ReplicaSet
	// Route picks the replica-selection policy: RouteRoundRobin (default) or
	// RoutePrimaryOnly. Ignored without Replicas.
	Route string
}

// Server is a running front door. Create with New, mount Handler on an
// http.Server, Close to reject queued work and wait for running requests.
type Server struct {
	sys          *multirag.System
	sched        *scheduler
	metrics      *metrics
	byName       map[string]*classState
	defaultClass *classState
	ingestClass  *classState
	queueTimeout time.Duration
	// pressure reports the ingest pipeline's admission state; defaults to
	// System.IngestPressure (overridable by tests to force saturation).
	pressure func() (inflight, capacity int)
	recovery *multirag.RecoveryInfo
	// router, when non-nil, spreads engine calls across the configured
	// replica set, to replicas that are live and within DefaultMaxLag commits.
	router *router
	mux    *http.ServeMux

	// draining rejects new work with 503 + Retry-After once set (Drain /
	// Close).
	draining atomic.Bool
}

// New validates cfg and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("serve: Config.System is required")
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	if cfg.Executors <= 0 {
		cfg.Executors = runtime.GOMAXPROCS(0)
	}

	s := &Server{
		sys:          cfg.System,
		byName:       map[string]*classState{},
		queueTimeout: cfg.QueueTimeout,
		pressure:     cfg.System.IngestPressure,
		recovery:     cfg.Recovery,
	}
	rt, err := newRouter(cfg.System, cfg.Replicas, cfg.Route)
	if err != nil {
		return nil, err
	}
	s.router = rt
	var states []*classState
	for _, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("serve: class with empty name")
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate class %q", c.Name)
		}
		if c.QueueCap <= 0 {
			c.QueueCap = 256
		}
		cs := &classState{cfg: c}
		s.byName[c.Name] = cs
		states = append(states, cs)
	}
	s.defaultClass = states[0]
	if s.ingestClass = s.byName[IngestClass]; s.ingestClass == nil {
		cs := &classState{cfg: Class{Name: IngestClass, QueueCap: 256}}
		s.byName[IngestClass] = cs
		states = append(states, cs)
		s.ingestClass = cs
	}

	order := make([]string, len(states))
	for i, cs := range states {
		order[i] = cs.cfg.Name
	}
	s.metrics = newMetrics(order)
	s.sched = newScheduler(states, cfg.Executors)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/query/batch", s.handleBatch)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the server into draining: every subsequent request is rejected
// with 503 + Retry-After and /healthz starts failing, while queued and
// in-flight work completes normally. The graceful-shutdown sequence is
// Drain → http.Server.Shutdown (in-flight handlers finish) → Close →
// System.Close (final checkpoint).
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain or Close has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server, rejects all queued requests with 503 and waits
// for every slot to be free. Running requests complete and deliver their
// answers before Close returns, so afterwards nothing touches the engine —
// the caller may close a durable System underneath. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.sched.close()
}

// Metrics returns the current metrics snapshot (the /v1/metrics payload).
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.metrics.snapshot()
	snap.QueueDepths = s.sched.depths()
	snap.IngestInflight, snap.IngestCapacity = s.pressure()
	snap.Durability = s.sys.Durability()
	snap.Recovery = s.recovery
	if s.router != nil {
		snap.Router = s.router.metricsSnapshot()
	}
	return snap
}

// runBatch evaluates one request's queries as one engine call, containing
// faults at the serve boundary and panics escaping the engine: either
// becomes a set of degraded answers rather than a dead handler goroutine.
func (s *Server) runBatch(ctxs []context.Context, queries []string) (answers []multirag.Answer) {
	degradeAll := func(reason string) []multirag.Answer {
		out := make([]multirag.Answer, len(queries))
		for i, q := range queries {
			out[i] = multirag.Answer{Query: q, Degraded: true, DegradedReason: reason}
		}
		return out
	}
	defer func() {
		if r := recover(); r != nil {
			answers = degradeAll(fmt.Sprintf("panic: %v", r))
		}
	}()
	// Chaos seam for the evaluation itself. Deliberately bound to no
	// request's context, so a hang here holds its slot until
	// fault.Disable/Reset, and requests that find every slot hung queue and
	// shed via queue timeout.
	if err := fault.Inject(context.Background(), fault.PointServeExecute); err != nil {
		return degradeAll(err.Error())
	}
	if s.router != nil {
		return s.router.run(ctxs, queries)
	}
	return s.sys.AskEach(ctxs, queries)
}

// Wire shapes.

// QueryRequest is the /v1/query payload.
type QueryRequest struct {
	Query string `json:"query"`
	Class string `json:"class,omitempty"`
	// DeadlineMillis optionally tightens the class deadline for this request
	// (it can never extend it). The budget is counted from admission.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// BatchRequest is the /v1/query/batch payload. Each of its queries counts
// against its class's QueueCap while it waits.
type BatchRequest struct {
	Queries []string `json:"queries"`
	Class   string   `json:"class,omitempty"`
	// DeadlineMillis applies per query, as in QueryRequest.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// BatchResponse answers a BatchRequest in input order.
type BatchResponse struct {
	Answers []multirag.Answer `json:"answers"`
}

// IngestFile is one file of an /v1/ingest payload (multirag.File with string
// content).
type IngestFile struct {
	Domain  string            `json:"domain"`
	Source  string            `json:"source"`
	Name    string            `json:"name"`
	Format  string            `json:"format"`
	Meta    map[string]string `json:"meta,omitempty"`
	Content string            `json:"content"`
}

// IngestRequest is the /v1/ingest payload.
type IngestRequest struct {
	Files []IngestFile `json:"files"`
}

// IngestResponse acknowledges a committed ingest batch.
type IngestResponse struct {
	OK    bool `json:"ok"`
	Files int  `json:"files"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.shedDraining(w) {
		return
	}
	var req QueryRequest
	if !s.readPost(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return
	}
	if !queryLenOK(w, req.Query) {
		return
	}
	cs, ok := s.resolveClass(w, req.Class)
	if !ok {
		return
	}
	answers, out := s.evaluate(r.Context(), cs, req.DeadlineMillis, []string{req.Query})
	if out.status != http.StatusOK {
		out.write(w)
		return
	}
	writeJSON(w, http.StatusOK, answers[0])
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shedDraining(w) {
		return
	}
	var req BatchRequest
	if !s.readPost(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "missing queries")
		return
	}
	for _, q := range req.Queries {
		if !queryLenOK(w, q) {
			return
		}
	}
	cs, ok := s.resolveClass(w, req.Class)
	if !ok {
		return
	}
	if n := len(req.Queries); n > cs.cfg.QueueCap {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds class %q queue cap of %d", n, cs.cfg.Name, cs.cfg.QueueCap))
		return
	}
	answers, out := s.evaluate(r.Context(), cs, req.DeadlineMillis, req.Queries)
	if out.status != http.StatusOK {
		out.write(w)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Answers: answers})
}

// evaluate runs one admitted request's queries as one engine call under one
// execution slot, on the calling handler goroutine. The request's context
// derives from the client connection (disconnect cancels), bounded by the
// effective deadline counted from admission, so time spent waiting for a
// slot draws down the same budget as evaluation; with no deadline the
// connection's context is used as it is. A request that finds no free slot
// waits for one (scheduler.wait). The outcome is 200 when every answer is
// delivered, else the first answer's (or the wait's) failure.
func (s *Server) evaluate(base context.Context, cs *classState, deadlineMillis int64, queries []string) ([]multirag.Answer, reqOutcome) {
	enq := time.Now()
	ctx := base
	if d := effectiveDeadline(cs, deadlineMillis); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, d)
		defer cancel()
	}
	wt, err := s.sched.claim(cs, len(queries))
	if err == nil && wt != nil {
		err = s.sched.wait(ctx, wt, s.queueTimeout)
	}
	if err != nil {
		return nil, s.unserved(cs, err)
	}
	ctxs := make([]context.Context, len(queries))
	for i := range ctxs {
		ctxs[i] = ctx
	}
	// runBatch contains panics, so the slot always comes back; it goes to the
	// next waiter, if any, before the answers go out.
	answers := s.runBatch(ctxs, queries)
	s.sched.release()
	for i := range answers {
		if out := s.conclude(cs, enq, answers[i]); out.status != http.StatusOK {
			return nil, out
		}
	}
	return answers, reqOutcome{status: http.StatusOK}
}

// effectiveDeadline is a request's end-to-end budget: the smaller of the
// class deadline and the request's own deadline_ms, whichever are set, or 0
// for none.
func effectiveDeadline(cs *classState, deadlineMillis int64) time.Duration {
	d := cs.cfg.Deadline
	if deadlineMillis > 0 {
		rd := time.Duration(deadlineMillis) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	return d
}

// reqOutcome is the HTTP disposition of a concluded request.
type reqOutcome struct {
	status int
	shed   bool // carries Retry-After (load-shed, retryable)
	msg    string
}

func (o reqOutcome) write(w http.ResponseWriter) {
	if o.shed {
		writeShed(w, o.status, o.msg)
		return
	}
	writeError(w, o.status, o.msg)
}

// unserved classifies why a request got no slot into its HTTP disposition
// and counter: a full class queue (429), a queue timeout (503), its deadline
// or disconnect while it waited (504 / 503), or the server closing (503).
func (s *Server) unserved(cs *classState, err error) reqOutcome {
	name := cs.cfg.Name
	switch err {
	case errQueueFull:
		s.metrics.rejectQueue(name)
		return reqOutcome{status: http.StatusTooManyRequests, shed: true, msg: err.Error()}
	case errQueueTimeout:
		s.metrics.timeout(name)
		return reqOutcome{status: http.StatusServiceUnavailable, shed: true,
			msg: fmt.Sprintf("queue timeout: class %q waited over %v", name, s.queueTimeout)}
	case context.DeadlineExceeded:
		s.metrics.deadline(name)
		return reqOutcome{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("deadline exceeded: class %q budget spent while queued", name)}
	case context.Canceled:
		s.metrics.canceled(name)
		return reqOutcome{status: http.StatusServiceUnavailable, msg: "request canceled"}
	default: // errClosed
		return reqOutcome{status: http.StatusServiceUnavailable, shed: true, msg: drainingMsg}
	}
}

// conclude classifies one answer into its HTTP disposition and records the
// outcome counters: completed (latency recorded) or a degraded partial
// answer — delivered as 200 + Degraded when the class opted in, converted to
// the matching error otherwise.
func (s *Server) conclude(cs *classState, enq time.Time, ans multirag.Answer) reqOutcome {
	name := cs.cfg.Name
	if !ans.Degraded {
		s.metrics.record(name, time.Since(enq))
		return reqOutcome{status: http.StatusOK}
	}
	if cs.cfg.Degrade {
		s.metrics.degraded(name)
		s.metrics.record(name, time.Since(enq))
		return reqOutcome{status: http.StatusOK}
	}
	switch ans.DegradedReason {
	case "deadline":
		s.metrics.deadline(name)
		return reqOutcome{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("deadline exceeded: class %q", name)}
	case "canceled":
		s.metrics.canceled(name)
		return reqOutcome{status: http.StatusServiceUnavailable, msg: "request canceled"}
	default:
		s.metrics.fail(name)
		return reqOutcome{status: http.StatusInternalServerError, msg: "degraded: " + ans.DegradedReason}
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.shedDraining(w) {
		return
	}
	var req IngestRequest
	if !s.readPost(w, r, &req) {
		return
	}
	if len(req.Files) == 0 {
		writeError(w, http.StatusBadRequest, "missing files")
		return
	}
	cs := s.ingestClass
	// Backpressure coupling: when the group committer's bounded admission
	// window is full, IngestFiles would block this handler on the committer
	// condvar — shed at the front door instead and let the client retry.
	if inflight, capacity := s.pressure(); inflight >= capacity {
		s.metrics.rejectAdmission(cs.cfg.Name)
		writeShed(w, http.StatusTooManyRequests,
			fmt.Sprintf("ingest pipeline at capacity (%d/%d batches in flight)", inflight, capacity))
		return
	}
	files := make([]multirag.File, len(req.Files))
	for i, f := range req.Files {
		files[i] = multirag.File{
			Domain: f.Domain, Source: f.Source, Name: f.Name,
			Format: f.Format, Meta: f.Meta, Content: []byte(f.Content),
		}
	}
	start := time.Now()
	if err := s.sys.IngestFiles(files...); err != nil {
		s.metrics.fail(cs.cfg.Name)
		status := http.StatusBadRequest // the files were rejected
		if errors.Is(err, multirag.ErrCommit) {
			status = http.StatusInternalServerError // accepted, but the commit failed
		}
		writeError(w, status, err.Error())
		return
	}
	s.metrics.record(cs.cfg.Name, time.Since(start))
	writeJSON(w, http.StatusOK, IngestResponse{OK: true, Files: len(files)})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.sys.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// HealthResponse is the /healthz payload: a tri-state status with a reason,
// instead of a bare binary probe.
type HealthResponse struct {
	// Status is "ok", "degraded" (alive but impaired — WAL append latched) or
	// "draining" (shutting down).
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Fail the probe so load balancers stop routing here while in-flight
		// work finishes.
		writeJSON(w, http.StatusServiceUnavailable,
			HealthResponse{Status: "draining", Reason: "server draining for shutdown"})
		return
	}
	if reason := s.degradedReason(); reason != "" {
		// Impaired but alive: answer 200 so load balancers keep routing —
		// queries still work even when ingest durability is down. The payload
		// carries the reason for operators and status-aware probes.
		writeJSON(w, http.StatusOK, HealthResponse{Status: "degraded", Reason: reason})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// degradedReason reports why the server is degraded, or "" when healthy: a
// latched WAL append failure, after which ingest fails until restart.
func (s *Server) degradedReason() string {
	if d := s.sys.Durability(); d.Durable && d.WALAppendErr != "" {
		return "wal append latched: " + d.WALAppendErr
	}
	return ""
}

// resolveClass maps a request's class name onto its state, writing the 400
// itself when the name is unknown.
func (s *Server) resolveClass(w http.ResponseWriter, name string) (*classState, bool) {
	if name == "" {
		return s.defaultClass, true
	}
	cs := s.byName[name]
	if cs == nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown class %.64q", name))
		return nil, false
	}
	return cs, true
}

// maxBodyBytes bounds one request body. It sits far above any legitimate
// request — the benchmark's whole 2.2 MB corpus fits many times over as one
// /v1/ingest batch — and only stops a client from streaming an unbounded body
// into memory.
const maxBodyBytes = 64 << 20

// maxQueryBytes bounds one query's text. The engine's per-query tables —
// the embedding cache, the sub-question prefixes, the evidence memo — are
// bounded by entry count, not bytes, and keep query text or pieces of it, so
// without this one client could pin gigabytes of it through bodies of up to
// maxBodyBytes. Real questions are far shorter: the benchmark's longest is
// under 100 bytes.
const maxQueryBytes = 4 << 10

// queryLenOK answers 400 and reports false when q is longer than
// maxQueryBytes.
func queryLenOK(w http.ResponseWriter, q string) bool {
	if len(q) <= maxQueryBytes {
		return true
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("query of %d bytes exceeds the limit of %d", len(q), maxQueryBytes))
	return false
}

// jsonBuf is a pooled body buffer with an encoder writing into it: readPost
// reads request bodies into it and writeJSON encodes responses into it, so
// neither allocates fresh codec state per request.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

// maxPooledBuf caps the buffers kept for reuse: one that grew past it (an
// ingest body, a metrics payload) is dropped, so a rare large body does not
// stay pinned in the pool.
const maxPooledBuf = 64 << 10

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	b.enc.SetEscapeHTML(false)
	return b
}}

func getJSONBuf() *jsonBuf {
	b := jsonBufs.Get().(*jsonBuf)
	b.Reset()
	return b
}

func putJSONBuf(b *jsonBuf) {
	if b.Cap() <= maxPooledBuf {
		jsonBufs.Put(b)
	}
}

// readPost enforces POST + a body of at most maxBodyBytes holding exactly one
// JSON value, writing the error response itself.
func (s *Server) readPost(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	b := getJSONBuf()
	defer putJSONBuf(b)
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return false
	}
	// Unmarshal copies every string it decodes, so nothing in into aliases
	// the buffer once it returns to the pool.
	if err := json.Unmarshal(b.Bytes(), into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return false
	}
	return true
}

// jsonContentType is the Content-Type of every response, shared so that
// setting it allocates nothing. net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON encodes v before sending anything, so a value that cannot be
// encoded is answered 500 with an ErrorResponse naming the failure instead
// of its status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b := getJSONBuf()
	defer putJSONBuf(b)
	if err := b.enc.Encode(v); err != nil {
		b.Reset()
		code = http.StatusInternalServerError
		// An ErrorResponse always encodes.
		_ = b.enc.Encode(ErrorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(b.Bytes())
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: fitError(msg)})
}

// maxErrorBody bounds the body of an error response. An error quotes at most
// 64 runes of any request field, but one quoted rune can take eleven bytes
// once JSON-encoded, and a message may quote four fields.
const maxErrorBody = 512

// fitError returns msg, cut at a rune boundary when its ErrorResponse would
// encode to more than maxErrorBody bytes: the head, which names the failure,
// is kept.
func fitError(msg string) string {
	// A byte of msg encodes to at most six ("\u00XX"), beside 13 bytes of
	// framing and newline, so a message this short always fits.
	if len(msg) <= (maxErrorBody-13)/6 {
		return msg
	}
	b := getJSONBuf()
	defer putJSONBuf(b)
	for {
		b.Reset()
		_ = b.enc.Encode(ErrorResponse{Error: msg}) // an ErrorResponse always encodes
		if b.Len() <= maxErrorBody {
			return msg
		}
		cut := len(msg) * maxErrorBody / b.Len()
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut]
	}
}

// retryAfterSeconds is the backoff hint attached to every shed response
// (full queue, queue timeout, pipeline saturation, draining).
// Overload here is transient — a committed group or a drained queue frees
// capacity within, at worst, the queue timeout — so the hint is short and
// clients honouring it converge instead of thundering.
const retryAfterSeconds = 1

// writeShed rejects a request for load or lifecycle reasons: the response
// carries a Retry-After so clients know the condition is retryable, unlike a
// 400/405 which is not.
func writeShed(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, code, msg)
}

// shedDraining answers true and writes the 503 when the server is draining.
func (s *Server) shedDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeShed(w, http.StatusServiceUnavailable, drainingMsg)
	return true
}

// drainingMsg answers a request that arrived, or still waited for a slot,
// while the server shuts down.
const drainingMsg = "server draining for shutdown"
