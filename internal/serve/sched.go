package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// Policies for the order in which queued requests get a free slot.
const (
	// PolicyFCFS serves requests strictly in arrival order across classes.
	PolicyFCFS = "fcfs"
	// PolicyPriority serves the highest-priority class first (Class.Priority,
	// higher wins), arrival order within a class.
	PolicyPriority = "priority"
)

// waiter is one request waiting for an execution slot: a /v1/query or a whole
// /v1/query/batch of n queries. ready is buffered (capacity 1) and receives at
// most one send, under the scheduler mutex: nil when release hands the waiter
// its slot, errClosed when close fails it. Whoever takes a waiter out of its
// class queue owns that send, so no sender ever blocks.
type waiter struct {
	seq   uint64
	n     int
	ready chan error
	timer *time.Timer
}

// waiters recycles waiters with their channel and queue timer: under
// saturation every request waits, and each would otherwise allocate five
// objects. wait returns a waiter with ready drained and the timer stopped, so
// a recycled one carries nothing over.
var waiters = sync.Pool{New: func() any {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &waiter{ready: make(chan error, 1), timer: timer}
}}

// classState is one configured SLO class at runtime: its admission bucket
// and its bounded FIFO of waiters (guarded by the scheduler mutex).
type classState struct {
	cfg    Class
	bucket *tokenBucket
	fifo   []*waiter
	// queued is the number of queries in fifo, bounded by cfg.QueueCap.
	queued int
}

// The reasons a request gets no slot.
var (
	errQueueFull    = errors.New("serve: class queue full")
	errQueueTimeout = errors.New("serve: queue timeout")
	errClosed       = errors.New("serve: server closed")
)

// scheduler owns the execution slots and the per-class queues of requests
// waiting for one. A request takes a free slot with claim, or queues and
// waits on its own handler goroutine; release hands a freed slot straight to
// the next waiter in policy order, so a slot never sits free while anyone
// waits.
type scheduler struct {
	mu      sync.Mutex
	idle    sync.Cond // broadcast when the last slot is freed after close
	classes []*classState
	policy  string
	// running counts held slots; limit (Config.Executors) bounds it.
	running int
	limit   int
	// waiting counts queued waiters across classes.
	waiting int
	seq     uint64
	closed  bool
}

func newScheduler(policy string, classes []*classState, limit int) *scheduler {
	s := &scheduler{classes: classes, policy: policy, limit: limit}
	s.idle.L = &s.mu
	return s
}

// claim takes a slot for n queries of class cs. It takes a free slot only
// while no waiter is queued, so a request never overtakes a queued one under
// either policy, and returns a nil waiter: the caller holds the slot until it
// calls release. Otherwise it queues a waiter for wait, unless the class
// queue has no room for n more queries (errQueueFull). A closed scheduler
// answers errClosed.
func (s *scheduler) claim(cs *classState, n int) (*waiter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, errClosed
	case s.waiting == 0 && s.running < s.limit:
		s.running++
		return nil, nil
	case cs.queued+n > cs.cfg.QueueCap:
		return nil, errQueueFull
	}
	w := waiters.Get().(*waiter)
	w.seq, w.n = s.seq, n
	s.seq++
	cs.fifo = append(cs.fifo, w)
	cs.queued += n
	s.waiting++
	return w, nil
}

// wait blocks until release grants w a slot (nil: the caller now holds it),
// ctx ends (its error), timeout passes (errQueueTimeout; < 0 waits without
// one) or close fails w (errClosed). The timer bounds only the wait: once
// the slot is granted the request runs under ctx alone. w goes back to the
// pool: the caller must not use it again.
func (s *scheduler) wait(ctx context.Context, w *waiter, timeout time.Duration) error {
	defer waiters.Put(w)
	var timerC <-chan time.Time
	if timeout >= 0 {
		w.timer.Reset(timeout)
		defer w.timer.Stop()
		timerC = w.timer.C
	}
	var why error
	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
		why = ctx.Err()
	case <-timerC:
		why = errQueueTimeout
	}
	if err := s.abandon(w); err != nil {
		return err
	}
	return why
}

// abandon takes a waiter that gave up out of its class queue. One that is no
// longer queued already has its send: a granted slot, which it passes on
// with release, or errClosed, which it returns.
func (s *scheduler) abandon(w *waiter) error {
	s.mu.Lock()
	for _, cs := range s.classes {
		for i, x := range cs.fifo {
			if x == w {
				cs.fifo = slices.Delete(cs.fifo, i, i+1)
				cs.queued -= w.n
				s.waiting--
				s.mu.Unlock()
				return nil
			}
		}
	}
	s.mu.Unlock()
	if err := <-w.ready; err != nil {
		return err
	}
	s.release()
	return nil
}

// release gives back a held slot. With a waiter queued the slot passes
// straight to the next one in policy order and running does not change;
// otherwise it frees, waking close once the last one is free.
func (s *scheduler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.nextLocked(); cs != nil {
		w := cs.fifo[0]
		// Shift rather than reslice, so the queue reuses its array.
		cs.fifo = slices.Delete(cs.fifo, 0, 1)
		cs.queued -= w.n
		s.waiting--
		w.ready <- nil
		return
	}
	s.running--
	if s.closed && s.running == 0 {
		s.idle.Broadcast()
	}
}

// nextLocked picks the class whose head waiter gets the next slot, or nil
// when nobody waits. Per-class FIFOs are seq-ordered, so under fcfs the
// globally oldest waiter is at one of the heads; under priority the
// highest-priority class wins, priority ties by arrival order.
func (s *scheduler) nextLocked() *classState {
	var best *classState
	for _, cs := range s.classes {
		if len(cs.fifo) == 0 {
			continue
		}
		wins := best == nil || cs.fifo[0].seq < best.fifo[0].seq
		if s.policy == PolicyPriority && best != nil && cs.cfg.Priority != best.cfg.Priority {
			wins = cs.cfg.Priority > best.cfg.Priority
		}
		if wins {
			best = cs
		}
	}
	return best
}

// depths reports per-class queued queries (metrics endpoint).
func (s *scheduler) depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.classes))
	for _, cs := range s.classes {
		out[cs.cfg.Name] = cs.queued
	}
	return out
}

// close fails every waiter with errClosed, fails later claims, and returns
// once no slot is held: requests already running complete and deliver
// normally first. Every call waits, so a second close returns no earlier.
func (s *scheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, cs := range s.classes {
		for _, w := range cs.fifo {
			w.ready <- errClosed
		}
		cs.fifo, cs.queued = nil, 0
	}
	s.waiting = 0
	for s.running > 0 {
		s.idle.Wait()
	}
}
