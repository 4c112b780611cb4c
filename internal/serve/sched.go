package serve

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// waiter is one request waiting for an execution slot: a /v1/query or a whole
// /v1/query/batch of n queries of class c. ready is buffered (capacity 1) and
// receives at most one send, under the scheduler mutex: nil when release
// hands the waiter its slot, errClosed when close fails it. Whoever takes a
// waiter out of the line owns that send, so no sender ever blocks.
type waiter struct {
	c     class
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
	mu   sync.Mutex
	idle sync.Cond // broadcast when the last slot is freed after close
	// line is the FIFO of waiters, oldest first.
	line []*waiter
	// queued counts each query class's queries in the line, each bounded by
	// queueCap (Config.QueueCap).
	queued   [queryClasses]int
	queueCap int
	// running counts held slots; limit (Config.Executors) bounds it.
	running int
	limit   int
	closed  bool
}

func newScheduler(limit, queueCap int) *scheduler {
	s := &scheduler{limit: limit, queueCap: queueCap}
	s.idle.L = &s.mu
	return s
}

// claim takes a slot for n queries of query class c. It takes a free slot only
// while the line is empty, so a request never overtakes a queued one, and
// returns a nil waiter: the caller holds the slot until it calls release.
// Otherwise it queues a waiter for wait, unless the class has no room in the
// line for n more queries (errQueueFull). A closed scheduler answers
// errClosed.
func (s *scheduler) claim(c class, n int) (*waiter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, errClosed
	case len(s.line) == 0 && s.running < s.limit:
		s.running++
		return nil, nil
	case s.queued[c]+n > s.queueCap:
		return nil, errQueueFull
	}
	w := waiters.Get().(*waiter)
	w.c, w.n = c, n
	s.line = append(s.line, w)
	s.queued[c] += n
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
		s.queued[w.c] -= w.n
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
		s.queued[w.c] -= w.n
		w.ready <- nil
		return
	}
	s.running--
	if s.closed && s.running == 0 {
		s.idle.Broadcast()
	}
}

// depths reports each query class's queued queries (metrics endpoint).
func (s *scheduler) depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, queryClasses)
	for c, n := range s.queued {
		out[class(c).String()] = n
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
		s.queued[w.c] -= w.n
		w.ready <- errClosed
	}
	s.line = nil
	for s.running > 0 {
		s.idle.Wait()
	}
}
