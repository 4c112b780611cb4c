package retrieval

import (
	"context"

	"multirag/internal/fault"
)

// ctxCheckRows is how many rows a selection pass covers between context
// checks. A row costs a few nanoseconds there, so the cancellation
// granularity is tens of microseconds — far inside the ≤50ms slot-release
// budget — while the check itself (one atomic load via ctx.Err every 4096
// rows) is noise.
const ctxCheckRows = 4096

// ctxSearcher is what Index implements behind SearchVector: the same scan,
// stopping with the context's error once ctx is done.
type ctxSearcher interface {
	search(ctx context.Context, qv Vector, k int, keep func(source string) bool) ([]Hit, error)
}

// SearchVectorCtx is SearchVector with cooperative cancellation: the scan
// stops between query buckets or rows once ctx is done and returns the
// context error with no hits. It runs the very loop SearchVector
// runs, so results are bit-identical. It is also the retrieval layer's
// fault-injection point (fault.PointRetrievalScan).
func SearchVectorCtx(ctx context.Context, s Searcher, qv Vector, k int, keep func(source string) bool) ([]Hit, error) {
	if err := fault.Inject(ctx, fault.PointRetrievalScan); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cs, ok := s.(ctxSearcher); ok {
		return cs.search(ctx, qv, k, keep)
	}
	// Not an Index (a test's dense oracle): run it to completion (no
	// cancellation points inside), then honor the context for the result.
	hits := s.SearchVector(qv, k, keep)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return hits, nil
}
