package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// waiter is one request waiting for an execution slot: a /v1/query or a whole
// /v1/query/batch of n queries of class cs. ready is buffered (capacity 1) and
// receives at most one send, under the scheduler mutex: nil when release
// hands the waiter its slot, errClosed when close fails it. Whoever takes a
// waiter out of the line owns that send, so no sender ever blocks.
type waiter struct {
	cs    *classState
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

// classState is one configured SLO class at runtime.
type classState struct {
	cfg Class
	// queued is the number of the class's queries waiting in the scheduler's
	// line (guarded by its mutex), bounded by cfg.QueueCap.
	queued int
}

// The reasons a request gets no slot.
var (
	errQueueFull    = errors.New("serve: class queue full")
	errQueueTimeout = errors.New("serve: queue timeout")
	errClosed       = errors.New("serve: server closed")
)

// scheduler owns the execution slots and the one line of requests waiting
// for one. A request takes a free slot with claim, or queues and waits on its
// own handler goroutine; release hands a freed slot straight to the head of
// the line, so a slot never sits free while anyone waits and requests of
// every class are served in arrival order.
type scheduler struct {
	mu      sync.Mutex
	idle    sync.Cond // broadcast when the last slot is freed after close
	classes []*classState
	// line is the FIFO of waiters, oldest first.
	line []*waiter
	// running counts held slots; limit (Config.Executors) bounds it.
	running int
	limit   int
	closed  bool
}

func newScheduler(classes []*classState, limit int) *scheduler {
	s := &scheduler{classes: classes, limit: limit}
	s.idle.L = &s.mu
	return s
}

// claim takes a slot for n queries of class cs. It takes a free slot only
// while the line is empty, so a request never overtakes a queued one, and
// returns a nil waiter: the caller holds the slot until it calls release.
// Otherwise it queues a waiter for wait, unless the class has no room in the
// line for n more queries (errQueueFull). A closed scheduler answers
// errClosed.
func (s *scheduler) claim(cs *classState, n int) (*waiter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, errClosed
	case len(s.line) == 0 && s.running < s.limit:
		s.running++
		return nil, nil
	case cs.queued+n > cs.cfg.QueueCap:
		return nil, errQueueFull
	}
	w := waiters.Get().(*waiter)
	w.cs, w.n = cs, n
	s.line = append(s.line, w)
	cs.queued += n
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

// abandon takes a waiter that gave up out of the line. One that is no longer
// queued already has its send: a granted slot, which it passes on with
// release, or errClosed, which it returns.
func (s *scheduler) abandon(w *waiter) error {
	s.mu.Lock()
	if i := slices.Index(s.line, w); i >= 0 {
		s.line = slices.Delete(s.line, i, i+1)
		w.cs.queued -= w.n
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := <-w.ready; err != nil {
		return err
	}
	s.release()
	return nil
}

// release gives back a held slot. With a waiter queued the slot passes
// straight to the head of the line and running does not change; otherwise it
// frees, waking close once the last one is free.
func (s *scheduler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.line) > 0 {
		w := s.line[0]
		// Shift rather than reslice, so the line reuses its array.
		s.line = slices.Delete(s.line, 0, 1)
		w.cs.queued -= w.n
		w.ready <- nil
		return
	}
	s.running--
	if s.closed && s.running == 0 {
		s.idle.Broadcast()
	}
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
	for _, w := range s.line {
		w.cs.queued -= w.n
		w.ready <- errClosed
	}
	s.line = nil
	for s.running > 0 {
		s.idle.Wait()
	}
}
