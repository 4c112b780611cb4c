package serve

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is the per-SLO-class admission limiter: a bucket of Burst
// tokens refilled continuously at Rate tokens per second. A request is
// admitted iff the bucket currently holds its cost — there is no queueing at
// this layer, admission either passes or sheds the request, which is what
// keeps the bounded scheduler queues from absorbing unbounded excess load.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket builds a full bucket. rate <= 0 disables limiting; burst
// <= 0 defaults to max(1, rate) — one second of refill, never less than one
// whole request.
func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst <= 0 {
		burst = math.Max(1, rate)
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// admits reports whether a request costing cost tokens can ever pass: a
// limited bucket never holds more than burst, so a larger request would be
// shed on every attempt however long its client waited.
func (b *tokenBucket) admits(cost float64) bool {
	return b.rate <= 0 || cost <= b.burst
}

// take admits cost tokens at time now, reporting whether admission passed.
// The caller supplies the clock so tests drive refill deterministically; the
// bucket never moves its clock backwards under out-of-order now values.
func (b *tokenBucket) take(cost float64, now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*dt.Seconds())
		b.last = now
	}
	if b.tokens < cost {
		return false
	}
	b.tokens -= cost
	return true
}
