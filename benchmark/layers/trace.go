//go:build layers

package main

import (
	"encoding/json"
	"os"
	"time"

	"multirag/benchmark/harness"
)

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the ID of the span one level up (0 for client.http). Each level
// is a separate replay of the request, so a child's interval does not lie
// inside its parent's: compare durations, not timestamps.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder collects spans in memory from a single goroutine. durs always
// accumulates durations by span name; the spans themselves are kept only
// while keep is set, so passes that only feed medians cost no memory and the
// difference between a kept and an unkept pass is the tracing overhead.
type recorder struct {
	t0    time.Time
	keep  bool
	spans []span
	durs  map[string][]time.Duration
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), durs: map[string][]time.Duration{}}
}

// add records one finished call and returns its span ID.
func (r *recorder) add(parent, request int, name string, start time.Time, d time.Duration) int {
	r.durs[name] = append(r.durs[name], d)
	if !r.keep {
		return 0
	}
	id := len(r.spans) + 1
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// timed runs fn and records it.
func (r *recorder) timed(parent, request int, name string, fn func()) int {
	start := time.Now()
	fn()
	return r.add(parent, request, name, start, time.Since(start))
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// medianUS is the median of the durations recorded under name, in
// microseconds, and how many there were.
func (r *recorder) medianUS(name string) (float64, int) {
	return medianUS(r.durs[name]), len(r.durs[name])
}

// medianOf is the nearest-rank median of d, which it leaves unsorted.
func medianOf(d []time.Duration) time.Duration {
	v, _ := harness.NearestRank(harness.SortDurations(append([]time.Duration(nil), d...)), 0.50)
	return v
}

func medianUS(d []time.Duration) float64 { return float64(medianOf(d)) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
