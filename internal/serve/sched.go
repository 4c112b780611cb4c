package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"multirag"
)

// Batch-formation policies.
const (
	// PolicyFCFS serves requests strictly in arrival order across classes.
	PolicyFCFS = "fcfs"
	// PolicyPriority serves the highest-priority class first (Class.Priority,
	// higher wins), arrival order within a class.
	PolicyPriority = "priority"
)

// Request lifecycle states. Only a request that found no free execution slot
// has them (one that claimed a slot runs on its handler goroutine and is never
// queued). It is pending while queued; the executor claims it with a
// pending→running CAS before including it in a batch, and the waiting handler
// claims it with a pending→timedOut CAS when its queue timeout fires —
// whoever wins the CAS owns the outcome, so a request is never both answered
// and timed out.
const (
	reqPending int32 = iota
	reqRunning
	reqTimedOut
)

// request is one admitted query waiting for batch formation.
//
// Channel discipline: done is buffered (capacity 1) and receives exactly one
// send, from whichever side wins the request's CAS — the executor that claims
// it (pending→running, sends the answer) or the scheduler's close
// (pending→timedOut, sends errClosed). A handler that times the request out
// itself (pending→timedOut in await) receives nothing, and nothing is sent:
// no path can leave a sender blocked on the channel.
type request struct {
	query string
	class *classState
	seq   uint64
	enq   time.Time
	state atomic.Int32
	done  chan answerResult

	// ctx carries the request's end-to-end budget — the smaller of the class
	// deadline and the request's own deadline_ms, counted from admission — and
	// the client's disconnect signal. nil when the request has neither; the
	// engine's one query path then runs it under context.Background().
	ctx    context.Context
	cancel context.CancelFunc
}

// abort cancels the request's context, if it has one. Idempotent; safe from
// any goroutine.
func (r *request) abort() {
	if r.cancel != nil {
		r.cancel()
	}
}

type answerResult struct {
	answer multirag.Answer
	err    error
}

// classState is one configured SLO class at runtime: its admission bucket
// and its bounded FIFO of pending requests (guarded by the scheduler mutex).
type classState struct {
	cfg    Class
	bucket *tokenBucket
	fifo   []*request
}

// errQueueFull / errClosed are the scheduler's rejection reasons.
var (
	errQueueFull = errors.New("serve: class queue full")
	errClosed    = errors.New("serve: server closed")
)

// scheduler owns the execution slots, the pending-request queues and batch
// formation. A slot is held either by a handler running its own request
// (claim) or by an executor running a formed batch (next); both give it back
// with release. Executors block on the condvar, form one batch per wakeup
// under the mutex and run it outside.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	classes []*classState
	pending int
	// running counts held slots; limit (Config.Executors) bounds it.
	running  int
	limit    int
	seq      uint64
	closed   bool
	policy   string
	maxBatch int
}

func newScheduler(policy string, classes []*classState, maxBatch, limit int) *scheduler {
	s := &scheduler{classes: classes, policy: policy, maxBatch: maxBatch, limit: limit}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// claim takes a slot for a request to run on its own handler goroutine. It
// succeeds only while every class queue is empty and a slot is free, so a
// claimed request never overtakes a queued one under either policy; false
// means the request must queue. A closed scheduler answers errClosed.
func (s *scheduler) claim() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errClosed
	}
	if s.pending > 0 || s.running >= s.limit {
		return false, nil
	}
	s.running++
	return true, nil
}

// release gives back a slot taken by claim or next, waking an executor when
// requests are waiting for it, or close once the last slot is free.
func (s *scheduler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	switch {
	case s.closed && s.running == 0:
		s.cond.Broadcast()
	case s.pending > 0:
		s.cond.Signal()
	}
}

// enqueue admits one request into its class queue, rejecting when the
// bounded queue is full — the "bounded queues, not unbounded buffering"
// half of admission control.
func (s *scheduler) enqueue(r *request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if len(r.class.fifo) >= r.class.cfg.QueueCap {
		return errQueueFull
	}
	r.seq = s.seq
	s.seq++
	r.enq = time.Now()
	r.class.fifo = append(r.class.fifo, r)
	s.pending++
	s.cond.Signal()
	return nil
}

// enqueueAll admits a whole batch of class cs requests atomically: either
// every request fits the class queue or none is enqueued.
func (s *scheduler) enqueueAll(cs *classState, rs []*request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if len(cs.fifo)+len(rs) > cs.cfg.QueueCap {
		return errQueueFull
	}
	now := time.Now()
	for _, r := range rs {
		r.seq = s.seq
		s.seq++
		r.enq = now
		cs.fifo = append(cs.fifo, r)
		s.pending++
	}
	s.cond.Broadcast()
	return nil
}

// next blocks until a slot is free and a batch can be formed, or the
// scheduler closes, returning (nil, false) on close. The caller holds the
// slot until it calls release.
func (s *scheduler) next() ([]*request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, false
		}
		if s.running < s.limit {
			if batch := s.formBatchLocked(); len(batch) > 0 {
				s.running++
				return batch, true
			}
		}
		// Every slot is held, or the queues drained (anything popped had
		// already timed out); block until the next enqueue or release.
		s.cond.Wait()
	}
}

// formBatchLocked pops up to maxBatch requests in policy order, dropping any
// whose handler already timed out (their pending→running CAS fails).
func (s *scheduler) formBatchLocked() []*request {
	var batch []*request
	for len(batch) < s.maxBatch {
		r := s.popLocked()
		if r == nil {
			break
		}
		s.pending--
		if !r.state.CompareAndSwap(reqPending, reqRunning) {
			continue // handler timed it out while queued; drop
		}
		batch = append(batch, r)
	}
	return batch
}

// popLocked removes and returns the next request per policy, or nil when
// every queue is empty.
func (s *scheduler) popLocked() *request {
	if s.policy == PolicyPriority {
		return s.popPriorityLocked()
	}
	return s.popFCFSLocked()
}

// popFCFSLocked takes the globally oldest request. Per-class FIFOs are
// seq-ordered, so the global minimum is at one of the heads.
func (s *scheduler) popFCFSLocked() *request {
	var best *classState
	for _, cs := range s.classes {
		if len(cs.fifo) == 0 {
			continue
		}
		if best == nil || cs.fifo[0].seq < best.fifo[0].seq {
			best = cs
		}
	}
	return popHead(best)
}

// popPriorityLocked takes the head of the highest-priority non-empty class,
// breaking priority ties by arrival order.
func (s *scheduler) popPriorityLocked() *request {
	var best *classState
	for _, cs := range s.classes {
		if len(cs.fifo) == 0 {
			continue
		}
		if best == nil ||
			cs.cfg.Priority > best.cfg.Priority ||
			(cs.cfg.Priority == best.cfg.Priority && cs.fifo[0].seq < best.fifo[0].seq) {
			best = cs
		}
	}
	return popHead(best)
}

func popHead(cs *classState) *request {
	if cs == nil {
		return nil
	}
	r := cs.fifo[0]
	cs.fifo = cs.fifo[1:]
	return r
}

// depths reports per-class queue lengths (metrics endpoint).
func (s *scheduler) depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.classes))
	for _, cs := range s.classes {
		out[cs.cfg.Name] = len(cs.fifo)
	}
	return out
}

// close rejects everything still queued, fails later claims, wakes the
// executors so they exit, and returns once no slot is held: in-flight batches
// and handler-run requests complete and deliver normally first.
func (s *scheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, cs := range s.classes {
		for _, r := range cs.fifo {
			if r.state.CompareAndSwap(reqPending, reqTimedOut) {
				r.done <- answerResult{err: errClosed}
			}
		}
		cs.fifo = nil
	}
	s.pending = 0
	s.cond.Broadcast()
	for s.running > 0 {
		s.cond.Wait()
	}
}
