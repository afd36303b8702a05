package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"granulock/internal/model"
)

// The figure suite re-simulates many identical parameter cells: Figures
// 2, 3 and 4 share one ltot × npros grid, Figure 8's grid differs only
// in partitioning, and every replication repeats the base cells of its
// siblings. A cell is a pure function of its Params (the model promises
// equal Params ⇒ identical Metrics), so results are memoized process-
// wide and each distinct cell is simulated exactly once per process.
//
// Cells with a Scheduler are never cached: policies are stateful and a
// fresh instance is part of the cell's identity.

var (
	cellCache     sync.Map // string -> model.Metrics
	cellCacheLen  atomic.Int64
	cellCacheSize = int64(1 << 16)
)

// cellKey renders p as a cache key, reporting whether the cell is
// cacheable at all. %#v covers every field of Params, including the
// Classes mix element by element, so two cells share a key only when
// they are field-for-field identical.
func cellKey(p model.Params) (string, bool) {
	if p.Scheduler != nil {
		return "", false
	}
	return fmt.Sprintf("%#v", p), true
}

// CachedRunContext is model.RunContext deduplicated across sweeps:
// identical parameter cells (ignoring none of Params' fields) are
// simulated once and served from memory afterwards. Concurrent callers
// may race to compute the same cell; both compute the identical
// Metrics, so either store wins. ctx cancels an in-flight simulation at
// its next cancellation check and the call fails with the context's
// error (nothing is cached); a nil ctx never cancels. Cached results
// do not depend on ctx — the cancellation checks do not perturb the
// event order.
func CachedRunContext(ctx context.Context, p model.Params) (model.Metrics, error) {
	key, ok := cellKey(p)
	if !ok {
		return model.RunContext(ctx, p, nil)
	}
	if v, ok := cellCache.Load(key); ok {
		return v.(model.Metrics), nil
	}
	m, err := model.RunContext(ctx, p, nil)
	if err != nil {
		return m, err
	}
	// The cap keeps a long-lived process from growing the cache without
	// bound; overflow costs recomputation, never correctness. A slot is
	// reserved with Add before the store so that concurrent callers
	// cannot all pass a Load() check and overshoot the bound; the
	// reservation is returned if the store loses the race or the cache
	// is already full.
	if cellCacheLen.Add(1) > cellCacheSize {
		cellCacheLen.Add(-1)
		return m, nil
	}
	if _, loaded := cellCache.LoadOrStore(key, m); loaded {
		cellCacheLen.Add(-1)
	}
	return m, nil
}
