//go:build layers

package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"multirag/benchmark/harness"
)

// counters reads what the process, the replica set and the server count
// around the measured phase of the gating run.
type counters struct {
	st *harness.Stack

	cpu      time.Duration
	gcCPU    float64
	pauses   *metrics.Float64Histogram
	maxLag   uint64
	stopPoll chan struct{}
	polled   sync.WaitGroup
}

const (
	gcCPUMetric   = "/cpu/classes/gc/total:cpu-seconds"
	gcPauseMetric = "/sched/pauses/total/gc:seconds"
)

func readRuntime() (gcCPU float64, pauses *metrics.Float64Histogram) {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: gcPauseMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		pauses = s[1].Value.Float64Histogram()
	}
	return gcCPU, pauses
}

func (c *counters) start(st *harness.Stack) {
	c.st = st
	c.gcCPU, c.pauses = readRuntime()
	c.cpu = harness.ProcessCPU()
	// Replica lag is a gauge, so it is polled: 10 Hz for the whole phase.
	c.stopPoll = make(chan struct{})
	c.polled.Add(1)
	go func() {
		defer c.polled.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stopPoll:
				return
			case <-tick.C:
				for _, r := range st.Set.Status() {
					c.maxLag = max(c.maxLag, r.Lag)
				}
			}
		}
	}()
}

func (c *counters) stop(p harness.Phase, out *report) {
	cpu := harness.ProcessCPU() - c.cpu
	close(c.stopPoll)
	c.polled.Wait()
	gcCPU, pauses := readRuntime()
	ops := float64(max(p.Ops, 1))

	out.set("process.cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/ops, "ms", p.Ops)
	out.set("process.gc_cpu_share", (gcCPU-c.gcCPU)/max(cpu.Seconds(), 1e-9), "ratio", 1)
	p99, n := pauseP99(c.pauses, pauses)
	out.set("process.gc_pause_p99_us", p99*1e6, "us", n)
	// The client's view of the phase: wall-clock numbers, reported here and
	// not gated (see README.md, "Steadiness"). Nearest rank throughout.
	for _, q := range []struct {
		name string
		p    float64
	}{{"client.request_p50_ms", 0.50}, {"client.request_p95_ms", 0.95}, {"client.request_p99_ms", 0.99}} {
		v, _ := harness.NearestRank(p.Sorted, q.p)
		out.set(q.name, ms(v), "ms", len(p.Sorted))
	}
	out.set("client.ops_s", float64(p.Ops)/p.Elapsed.Seconds(), "1/s", p.Ops)

	var resyncs, dropped uint64
	for _, r := range p.Stack.Set.Status() {
		c.maxLag = max(c.maxLag, r.Lag)
		resyncs += r.Resyncs
		dropped += r.DroppedFrames
	}
	out.set("cluster.max_lag", float64(c.maxLag), "count", 1)
	out.set("cluster.resyncs", float64(resyncs), "count", 1)
	out.set("cluster.dropped_frames", float64(dropped), "count", 1)

	snap := p.Stack.Srv.Metrics()
	var shed int64
	var busiest int64 = -1
	var p99us float64
	for _, cl := range snap.Classes {
		shed += cl.RejectedAdmission + cl.RejectedQueue + cl.TimedOut
		if cl.Completed > busiest {
			busiest, p99us = cl.Completed, cl.P99Micros
		}
	}
	out.set("serve.shed", float64(shed), "count", 1)
	out.set("serve.server_p99_us", p99us, "us", int(max(busiest, 0)))
	share := 0.0
	if r := snap.Router; r != nil && r.PrimaryBatches+r.ReplicaBatches > 0 {
		share = float64(r.PrimaryBatches) / float64(r.PrimaryBatches+r.ReplicaBatches)
	}
	out.set("serve.router_primary_share", share, "ratio", 1)
}

// pauseP99 is the 99th percentile of the GC stop-the-world pauses that fell
// between two readings of the runtime's pause histogram, as the upper edge
// of the bucket holding it.
func pauseP99(before, after *metrics.Float64Histogram) (seconds float64, n int) {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0, 0
	}
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0, 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, d := range delta {
		seen += d
		if seen >= want {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge, int(total)
		}
	}
	return 0, int(total)
}
