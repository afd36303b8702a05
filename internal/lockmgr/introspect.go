package lockmgr

import "granulock/internal/obs"

// Stats are monotonically increasing counters of lock-table activity.
type Stats struct {
	Grants    int64 // acquire calls satisfied (immediately or after waiting)
	Blocks    int64 // acquire calls that had to wait
	Deadlocks int64 // claim-as-needed waits aborted as deadlock victims
}

// Stats returns a snapshot of the activity counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// FastPathStats is what is left of the counters of a lock-free fast path
// the table no longer has: Grants is always zero. It stays because the
// frozen benchmark harness reads it (lockmgr.fast_grant_ratio, which
// therefore reads 0).
type FastPathStats struct {
	Grants int64
}

// FastStats returns a zero FastPathStats.
func (t *Table) FastStats() FastPathStats { return FastPathStats{} }

// HeldBy returns the number of granules txn currently holds.
func (t *Table) HeldBy(txn TxnID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held[txn].size()
}

// HoldersCount returns the number of transactions currently holding at
// least one granule. A clean table reports 0; after a drain this is the
// residual-holder count a lock service must bring to zero.
func (t *Table) HoldersCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held) // a transaction has a hold set only while it holds
}

// LockedGranules returns the number of granules with at least one
// holder.
func (t *Table) LockedGranules() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, gs := range t.granules {
		if len(gs.holders) > 0 {
			n++
		}
	}
	return n
}

// WaitersCount returns the number of requests currently parked: both
// conservative whole-claim waiters and incremental per-granule waiters.
func (t *Table) WaitersCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.claimQ)
	for _, gs := range t.granules {
		n += len(gs.waiters)
	}
	return n
}

// granuleRecords counts granule records, including empty resident ones
// (test hook for granuleResident).
func (t *Table) granuleRecords() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.granules)
}

// HoldsAtLeast reports whether txn holds granule g in a mode that covers
// want.
func (t *Table) HoldsAtLeast(txn TxnID, g Granule, want Mode) bool {
	have, ok := t.heldMode(txn, g)
	return ok && covers(have, want)
}

// heldMode returns the mode txn holds g in, if it holds it.
func (t *Table) heldMode(txn TxnID, g Granule) (Mode, bool) {
	t.mu.Lock()
	have, ok := t.held[txn].get(g)
	t.mu.Unlock()
	return have, ok
}

// tableMetrics mirrors the Stats counters into an obs.Registry, the
// live-scrape view of lock-table activity. Gauges for holders, locked
// granules and parked waiters are registered as functions so they read
// the table's true state at scrape time instead of mirroring it.
type tableMetrics struct {
	grants    *obs.Counter
	waits     *obs.Counter
	deadlocks *obs.Counter
}

// newTableMetrics registers the lockmgr families on reg for t.
func newTableMetrics(reg *obs.Registry, t *Table) *tableMetrics {
	reg.NewGaugeFunc("granulock_lockmgr_holders",
		"Transactions currently holding at least one granule.",
		func() float64 { return float64(t.HoldersCount()) })
	reg.NewGaugeFunc("granulock_lockmgr_locked_granules",
		"Granules with at least one holder.",
		func() float64 { return float64(t.LockedGranules()) })
	reg.NewGaugeFunc("granulock_lockmgr_waiters",
		"Requests currently parked (conservative claims plus incremental waiters).",
		func() float64 { return float64(t.WaitersCount()) })
	return &tableMetrics{
		grants: reg.NewCounter("granulock_lockmgr_grants_total",
			"Acquire calls satisfied, immediately or after waiting."),
		waits: reg.NewCounter("granulock_lockmgr_waits_total",
			"Acquire calls that had to wait (lock conflicts)."),
		deadlocks: reg.NewCounter("granulock_lockmgr_deadlocks_total",
			"Claim-as-needed waits aborted as deadlock victims."),
	}
}

// omGrant, omWait and omDeadlock bump the registry twins of the Stats
// counters, as the core bumps those. They take no locks: obs counters
// are atomic.
func (c *core) omGrant() {
	if c.om != nil {
		c.om.grants.Inc()
	}
}

func (c *core) omWait() {
	if c.om != nil {
		c.om.waits.Inc()
	}
}

func (c *core) omDeadlock() {
	if c.om != nil {
		c.om.deadlocks.Inc()
	}
}
