// Package par provides the bounded fan-out primitive shared by the ingestion
// engine: a fixed pool of goroutines draining an atomic work counter. It is a
// leaf package so that both internal/adapter and internal/core (which imports
// adapter) can use the same loop.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// panicValue wraps a recovered panic so a nil panic value still re-panics.
type panicValue struct{ v any }

// ForEach runs fn(i) for i in [0, n) across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS). It returns when every index has been
// processed; fn must do its own error collection (e.g. into a slice slot).
//
// A panic in fn is re-raised on the caller's goroutine after the remaining
// workers drain — the same surface as the inline workers<=1 path — so a
// recover boundary above the fan-out contains it regardless of parallelism.
func ForEach(workers, n int, fn func(int)) { ForEachCtx(context.Background(), workers, n, fn) }

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done, no
// further index is claimed (indices already running finish) and the context
// error is returned.
func ForEachCtx(ctx context.Context, workers, n int, fn func(int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var panicked atomic.Pointer[panicValue]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicValue{r})
				}
			}()
			for {
				if ctx.Err() != nil || panicked.Load() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.v)
	}
	return ctx.Err()
}
