package serve

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mustHoldSlot takes a free slot of s.
func mustHoldSlot(t *testing.T, s *scheduler, c class) {
	t.Helper()
	if w, err := s.claim(c, 1); w != nil || err != nil {
		t.Fatalf("claim a free slot: waiter %v, err %v", w, err)
	}
}

// mustQueue queues a waiter for n queries of class c.
func mustQueue(t *testing.T, s *scheduler, c class, n int) *waiter {
	t.Helper()
	w, err := s.claim(c, n)
	if w == nil || err != nil {
		t.Fatalf("queue %d queries: waiter %v, err %v", n, w, err)
	}
	return w
}

// granted reports whether w has been handed a slot, without blocking.
func granted(w *waiter) bool {
	select {
	case err := <-w.ready:
		return err == nil
	default:
		return false
	}
}

// grantOrder releases the one held slot once per waiter and returns the
// names of the waiters in the order release handed them the slot.
func grantOrder(t *testing.T, s *scheduler, names map[*waiter]string) []string {
	t.Helper()
	var got []string
	for range names {
		s.release()
		for w, name := range names {
			if granted(w) {
				got = append(got, name)
			}
		}
	}
	s.release()
	if s.running != 0 {
		t.Fatalf("running = %d after the last waiter's release, want 0", s.running)
	}
	return got
}

// TestFCFSOrdersByArrivalAcrossClasses: with one slot, queued requests of
// both query classes, single queries and batches alike, are granted the slot
// strictly in arrival order, and each class's depth counts only its own
// queries.
func TestFCFSOrdersByArrivalAcrossClasses(t *testing.T) {
	s := newScheduler(1, 256)
	mustHoldSlot(t, s, interactive)
	names := map[*waiter]string{
		mustQueue(t, s, batch, 1):       "q1",
		mustQueue(t, s, interactive, 3): "q2",
		mustQueue(t, s, batch, 1):       "q3",
		mustQueue(t, s, batch, 2):       "q4",
		mustQueue(t, s, interactive, 1): "q5",
	}
	if d := s.depths(); d["interactive"] != 4 || d["batch"] != 4 {
		t.Fatalf("queue depths %v, want interactive=4 batch=4", d)
	}
	got, want := grantOrder(t, s, names), []string{"q1", "q2", "q3", "q4", "q5"}
	if !slices.Equal(got, want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
	if d := s.depths(); d["interactive"] != 0 || d["batch"] != 0 {
		t.Fatalf("queue depths %v once every waiter was granted, want 0", d)
	}
}

// TestBoundedQueueRejectsWhenFull: the queue cap bounds each query class's
// share of the line separately, counting every query of a batch.
func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	s := newScheduler(1, 2)
	mustHoldSlot(t, s, interactive)
	mustQueue(t, s, interactive, 1)
	// A batch waiter counts each of its queries: two do not fit in one.
	if w, err := s.claim(interactive, 2); w != nil || err != errQueueFull {
		t.Fatalf("over-cap batch: waiter %v, err %v, want errQueueFull", w, err)
	}
	mustQueue(t, s, interactive, 1)
	if w, err := s.claim(interactive, 1); w != nil || err != errQueueFull {
		t.Fatalf("over-cap query: waiter %v, err %v, want errQueueFull", w, err)
	}
	// The other class's share is its own.
	mustQueue(t, s, batch, 2)
	if d := s.depths(); d["interactive"] != 2 || d["batch"] != 2 {
		t.Fatalf("queue depths %v, want interactive=2 batch=2", d)
	}
}

// TestTimedOutRequestsAreDroppedFromBatches: a waiter that gives up while
// queued leaves the queue and is never granted a slot; release hands the
// slot to the waiter behind it.
func TestTimedOutRequestsAreDroppedFromBatches(t *testing.T) {
	s := newScheduler(1, 10)
	mustHoldSlot(t, s, interactive)
	doomed := mustQueue(t, s, interactive, 1)
	kept := mustQueue(t, s, interactive, 1)
	if err := s.wait(t.Context(), doomed, time.Millisecond); err != errQueueTimeout {
		t.Fatalf("wait on a held slot: %v, want errQueueTimeout", err)
	}
	if d := s.depths()["interactive"]; d != 1 {
		t.Fatalf("queue depth %d after the timeout, want 1", d)
	}
	s.release() // hands the slot to kept: doomed is no longer queued
	if len(doomed.ready) != 0 || !granted(kept) {
		t.Fatal("the slot went to the timed-out waiter, not the one behind it")
	}
	s.release()
	if s.running != 0 {
		t.Fatalf("running = %d after the last release, want 0", s.running)
	}
}

// TestQueueTimeoutLeavesNoBlockedSender: a waiter whose timeout loses the
// race to its grant takes the slot and passes it on, so running returns to 0
// and close does not hang.
func TestQueueTimeoutLeavesNoBlockedSender(t *testing.T) {
	s := newScheduler(1, 10)
	mustHoldSlot(t, s, interactive)
	raced := mustQueue(t, s, interactive, 1)
	s.release() // hands the slot to raced
	// raced's timer fired as release granted it: it finds itself dequeued,
	// takes the grant and releases the slot onward.
	if err := s.abandon(raced); err != nil {
		t.Fatalf("abandon a granted waiter: %v", err)
	}
	if s.running != 0 {
		t.Fatalf("running = %d after the raced waiter passed its slot on, want 0", s.running)
	}

	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close hangs on a slot nobody holds")
	}
}

// TestWaitersUnderContention: goroutines of both classes claim, wait with
// queue timeouts short enough to race their grants, hold and release. Never
// more than limit hold a slot at once, and once all are done no slot is held
// and nobody is queued.
func TestWaitersUnderContention(t *testing.T) {
	s := newScheduler(2, 256)
	var holding atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w, err := s.claim(class(g%2), 1)
				if w != nil {
					err = s.wait(context.Background(), w, time.Duration(i%3)*50*time.Microsecond)
				}
				if err != nil {
					continue // timed out (or the queue was full)
				}
				if n := holding.Add(1); n > int32(s.limit) {
					t.Errorf("%d slots held, limit %d", n, s.limit)
				}
				runtime.Gosched()
				holding.Add(-1)
				s.release()
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	running, queued := s.running, len(s.line)
	depths := s.queued[interactive] + s.queued[batch]
	s.mu.Unlock()
	if running != 0 || queued != 0 || depths != 0 {
		t.Fatalf("running=%d queued=%d depths=%d after every goroutine finished, want 0/0/0", running, queued, depths)
	}
	s.close()
}
