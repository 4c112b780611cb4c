// Package fault holds the serving stack's named fault-injection points.
//
// It generalises wal.MemFS's OnOp hook from filesystem operations to the
// whole request lifecycle. Production code marks the places where the outside
// world could fail — an LLM call, a retrieval scan, a WAL append, a commit —
// with a named point:
//
//	if err := fault.Inject(ctx, fault.PointLLMGenerate); err != nil { ... }
//
// and the chaos suite arms faults against those names: extra latency, an
// injected error, a hang that blocks until the caller's context is canceled
// (or the fault is cleared), or a panic. With nothing armed, Inject is a
// single atomic load — the production fast path costs nothing measurable and
// cannot change behaviour, which is what keeps the determinism pins of the
// equivalence suites intact.
//
// All registry functions are safe for concurrent use. The registry is
// process-global on purpose: chaos tests arm faults around a fully assembled
// system (HTTP front door included) without threading a handle through every
// layer, and must Reset() when done.
package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection-point names. Points are plain strings so packages can
// add their own; these constants name the ones wired into the engine.
const (
	// PointLLMGenerate guards each answer-generation call (core's
	// generate).
	PointLLMGenerate = "llm.generate"
	// PointLLMExtract guards per-query LLM extraction on the chunk-fallback
	// path: it fires before each of the two model calls (entities, then
	// triples) in core's extractChunk.
	PointLLMExtract = "llm.extract"
	// PointEvidence fires at the head of every (entity, relation)
	// sub-question evaluation — the unit the query DAG schedules.
	PointEvidence = "query.evidence"
	// PointRetrievalScan fires at the head of every context-aware retrieval
	// scan.
	PointRetrievalScan = "retrieval.scan"
	// PointCommit fires inside the group committer's critical section, before
	// any batch replays. Error faults fail the whole group (no batch is
	// acknowledged or published); hang faults here block until the fault is
	// cleared, since the commit path deliberately carries no context.
	PointCommit = "core.commit"
	// PointWALAppend fires before a commit group's WAL append. An error here
	// exercises the not-acknowledged path without latching the log itself.
	PointWALAppend = "wal.append"
	// PointServeExecute fires once per engine call the front door makes —
	// one per request, on its own handler (Server.runBatch) — before the
	// engine evaluates the request's queries.
	PointServeExecute = "serve.execute"
	// PointClusterReplay fires before a replica reads and replays each
	// committed record of the primary's log. Error faults fence the replica
	// (its state can no longer be trusted to match its position), forcing a
	// resync from the primary; hang faults stall it until released, while the
	// primary commits on and its lease keeps the log it has yet to read.
	PointClusterReplay = "cluster.replay"
	// PointClusterSeed fires after a replica captures its clone of the
	// primary's snapshot and before it installs it, when NewReplicaSet seeds
	// it and when it resyncs. An error fails that seed, releasing its lease.
	PointClusterSeed = "cluster.seed"
)

// Kind selects a fault's behaviour.
type Kind int

const (
	// KindLatency delays the caller by Fault.Latency (cut short if its
	// context is canceled first), then succeeds.
	KindLatency Kind = iota
	// KindError fails the operation with Fault.Err (ErrInjected when unset).
	KindError
	// KindHang blocks until the caller's context is canceled or the fault is
	// disabled, then returns the context error (nil when released by
	// Disable/Reset).
	KindHang
	// KindPanic panics — the containment the executor's recover boundary and
	// the chaos grid exercise.
	KindPanic
)

// String names the kind for grids and error messages.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindHang:
		return "hang"
	case KindPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// ErrInjected is the default error of KindError faults.
var ErrInjected = errors.New("fault: injected error")

// Fault is one armed failure mode.
type Fault struct {
	Kind Kind
	// Latency is the injected delay of KindLatency.
	Latency time.Duration
	// Err overrides ErrInjected for KindError.
	Err error
	// MaxHits bounds how many times the fault fires (0 = unlimited). Once
	// spent, Inject passes through as if the point were unarmed.
	MaxHits int64
}

// entry is one armed point at runtime.
type entry struct {
	f Fault
	// remaining is the hit budget (-1 = unlimited).
	remaining atomic.Int64
	hits      atomic.Int64
	// release unblocks in-flight hangs when the fault is cleared.
	release chan struct{}
}

var (
	// armed counts active faults; Inject's fast path is one load of it.
	armed atomic.Int64

	mu    sync.Mutex
	table = map[string]*entry{}
)

// Enable arms f at the named point, replacing any fault already armed there.
func Enable(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if old := table[point]; old != nil {
		close(old.release)
		armed.Add(-1)
	}
	e := &entry{f: f, release: make(chan struct{})}
	if f.MaxHits > 0 {
		e.remaining.Store(f.MaxHits)
	} else {
		e.remaining.Store(-1)
	}
	table[point] = e
	armed.Add(1)
}

// Disable clears the named point, releasing any goroutine hung on it.
func Disable(point string) {
	mu.Lock()
	defer mu.Unlock()
	if e := table[point]; e != nil {
		close(e.release)
		delete(table, point)
		armed.Add(-1)
	}
}

// Reset clears every armed fault, releasing all hung goroutines. Chaos tests
// defer it so one scenario can never leak into the next.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for point, e := range table {
		close(e.release)
		delete(table, point)
	}
	armed.Store(0)
}

// Hits reports how many times the named point has fired since it was armed
// (0 when unarmed).
func Hits(point string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if e := table[point]; e != nil {
		return e.hits.Load()
	}
	return 0
}

// Inject fires the fault armed at point, if any. With nothing armed anywhere
// it is a single atomic load and returns nil — the production fast path. The
// context governs latency truncation and hang release; code with no context
// of its own passes context.Background() (hangs then release only on
// Disable/Reset).
func Inject(ctx context.Context, point string) error {
	if armed.Load() == 0 {
		return nil
	}
	return inject(ctx, point)
}

func inject(ctx context.Context, point string) error {
	mu.Lock()
	e := table[point]
	mu.Unlock()
	if e == nil {
		return nil
	}
	// Claim one hit from the budget.
	for {
		rem := e.remaining.Load()
		if rem == 0 {
			return nil // budget spent: pass through
		}
		if rem < 0 || e.remaining.CompareAndSwap(rem, rem-1) {
			break
		}
	}
	e.hits.Add(1)
	switch e.f.Kind {
	case KindLatency:
		t := time.NewTimer(e.f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-e.release:
			return nil
		}
	case KindError:
		if e.f.Err != nil {
			return e.f.Err
		}
		return ErrInjected
	case KindHang:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.release:
			return nil
		}
	case KindPanic:
		panic("fault: injected panic at " + point)
	}
	return nil
}
