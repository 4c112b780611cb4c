package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// lane is one closed-loop request stream: clients goroutines, each sending
// its next request only after the previous reply has been read.
type lane struct {
	name    string
	clients int
	// do sends request i of the lane's sequence and checks the reply. units
	// is the work a good reply stands for: queries answered or files acked.
	do func(i int) (units int, lat time.Duration, err error)

	next    atomic.Int64
	samples atomic.Int64
	// limit, when positive, ends the lane's part in a phase: no request with
	// a sequence number of limit or more is sent. Fixed-work phases use it so
	// that exactly the same requests are sent however fast they are served.
	limit int64

	mu        sync.Mutex
	lat       []time.Duration
	units     int
	attempted int
	failed    int
	// elapsed is when the lane's last client stopped, from phase start.
	elapsed time.Duration
}

func (l *lane) reset() {
	l.mu.Lock()
	l.lat, l.units, l.attempted, l.failed, l.elapsed = nil, 0, 0, 0, 0
	l.mu.Unlock()
	l.samples.Store(0)
	l.limit = 0
}

// perSecond is the lane's completed units per second of its own running time.
func (l *lane) perSecond() float64 {
	if l.elapsed <= 0 {
		return 0
	}
	return float64(l.units) / l.elapsed.Seconds()
}

// runPhase drives every lane's clients until done says so or, for a lane
// with a limit, until its quota is sent. done (which may be nil when every
// lane has a limit) is evaluated by each client after each reply, so the
// phase ends within one request of the condition becoming true. Failed
// checks are handed to note.
func runPhase(ctx context.Context, lanes []*lane, note func(error), done func(elapsed time.Duration) bool) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range lanes {
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				var lat []time.Duration
				var units, attempted, failed int
				for !stop.Load() && ctx.Err() == nil {
					i := l.next.Add(1) - 1
					if l.limit > 0 && i >= l.limit {
						break
					}
					u, d, err := l.do(int(i))
					attempted++
					if err != nil {
						failed++
						note(err)
					} else {
						units += u
						lat = append(lat, d)
						l.samples.Add(1)
					}
					if done != nil && done(time.Since(start)) {
						stop.Store(true)
					}
				}
				l.mu.Lock()
				l.lat = append(l.lat, lat...)
				l.units += units
				l.attempted += attempted
				l.failed += failed
				l.elapsed = max(l.elapsed, time.Since(start))
				l.mu.Unlock()
			}(l)
		}
	}
	wg.Wait()
}
