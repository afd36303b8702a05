package main

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
)

// lockmgrRate is an upper guess of bare claim+release cycles per
// second, used only to size recorders.
const lockmgrRate = 2e6

// replayLockmgr replays a workload's claim stream against a bare
// lockmgr.NewTable() from the workload's number of clients: each client
// claims its next request set with AcquireAll and releases it at once,
// so the table's own cost is all there is. next returns client c's
// stream.
func replayLockmgr(vs values, clients int, dur time.Duration, next func(c int) func() []lockmgr.Request) {
	table := lockmgr.NewTable()
	expect := expectOps(lockmgrRate, dur, clients)
	// Per client, the claim and release times in ns of every cycle,
	// warm-up included (it is no different).
	claims, releases := make([][]int64, clients), make([][]int64, clients)
	var ids atomic.Int64
	w := runWindow(clients, dur, expect, func(c int, stop *atomic.Bool, rec *recorder) {
		stream := next(c)
		claim, release := make([]int64, 0, expect), make([]int64, 0, expect)
		ctx := context.Background()
		for !stop.Load() {
			reqs := stream()
			id := lockmgr.TxnID(ids.Add(1))
			start := rec.now()
			err := table.AcquireAll(ctx, id, reqs)
			held := rec.now()
			table.ReleaseAll(id)
			freed := rec.now()
			rec.done(start, err)
			claim = append(claim, held-start)
			release = append(release, freed-held)
		}
		claims[c], releases[c] = claim, release
	})
	claim, release := slices.Concat(claims...), slices.Concat(releases...)
	slices.Sort(claim)
	slices.Sort(release)
	vs["lockmgr.claim_us_p50"] = float64(quantile(claim, 0.5)) * usPerNs
	vs["lockmgr.claim_us_p99"] = float64(quantile(claim, 0.99)) * usPerNs
	vs["lockmgr.release_us_p50"] = float64(quantile(release, 0.5)) * usPerNs
	var objs uint64
	for _, s := range w.slices {
		objs += s.allocObjs
	}
	if w.attempted > 0 {
		vs["lockmgr.allocs_per_claim"] = float64(objs) / float64(w.attempted)
	}
	if _, ok := vs["lockmgr.fast_grant_ratio"]; !ok {
		vs["lockmgr.fast_grant_ratio"] = fastGrantRatio(table)
	}
}

// fastGrantRatio is the share of a table's grants that took the
// lock-free fast path.
func fastGrantRatio(t *lockmgr.Table) float64 {
	grants := t.Stats().Grants
	if grants == 0 {
		return 0
	}
	return float64(t.FastStats().Grants) / float64(grants)
}
