package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call; its outcome decides
	// between re-closing and re-opening.
	BreakerHalfOpen
)

// String names the state for metrics and health reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrOpen is returned by Breaker.Do without invoking fn while the breaker is
// open (or while another probe already holds the half-open slot).
var ErrOpen = errors.New("fault: circuit breaker open")

// BreakerStats is one breaker's observable state, exported on /v1/metrics.
type BreakerStats struct {
	// Name identifies the guarded target ("router.replica-0").
	Name string `json:"name"`
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// Failures counts consecutive failures while closed.
	Failures int64 `json:"consecutive_failures"`
	// Trips counts closed→open (and failed-probe) transitions.
	Trips int64 `json:"trips"`
	// FastFails counts calls rejected without running while open.
	FastFails int64 `json:"fast_fails"`
	// Successes counts calls that completed cleanly.
	Successes int64 `json:"successes"`
}

// Breaker is a consecutive-failure circuit breaker. Closed, it counts
// consecutive failures and trips open at the threshold; open, it fast-fails
// with ErrOpen until the cooldown elapses; then a single half-open probe is
// admitted — success re-closes the breaker, failure re-opens it for another
// cooldown. Safe for concurrent use; fn runs outside the lock.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for deterministic tests

	mu        sync.Mutex
	state     BreakerState
	failures  int64 // consecutive failures while closed
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	trips     int64
	fastFails int64
	successes int64
}

// NewBreaker builds a breaker that trips after threshold consecutive
// failures and stays open for cooldown; a nil clock uses time.Now.
func NewBreaker(name string, threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown, now: now}
}

// Do runs fn under the breaker's admission policy and records its outcome.
func (b *Breaker) Do(fn func() error) error {
	if err := b.allow(); err != nil {
		return err
	}
	err := fn()
	b.record(err)
	return err
}

// allow admits or fast-fails a call, transitioning open→half-open when the
// cooldown has elapsed.
func (b *Breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.fastFails++
			return fmt.Errorf("%w: %s", ErrOpen, b.name)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.fastFails++
			return fmt.Errorf("%w: %s (probe in flight)", ErrOpen, b.name)
		}
		b.probing = true
		return nil
	}
	return nil
}

// record applies a call's outcome to the state machine.
func (b *Breaker) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The caller gave up — that says nothing about the guarded stage's
		// health, so it is neither a failure nor a success. A canceled
		// half-open probe just frees the probe slot for a caller that will
		// wait for the verdict.
		if b.state == BreakerHalfOpen {
			b.probing = false
		}
		return
	}
	if err == nil {
		b.successes++
		b.failures = 0
		if b.state != BreakerClosed {
			b.state = BreakerClosed
			b.probing = false
		}
		return
	}
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= int64(b.threshold) {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	case BreakerHalfOpen:
		// The probe failed: back to open for another full cooldown.
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.trips++
		b.failures = int64(b.threshold)
	}
}

// State returns the current position (open flips to half-open lazily in
// allow, so a cooled-down open breaker still reads "open" until probed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		Name:      b.name,
		State:     b.state.String(),
		Failures:  b.failures,
		Trips:     b.trips,
		FastFails: b.fastFails,
		Successes: b.successes,
	}
}
