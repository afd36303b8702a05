package lockmgr

import (
	"cmp"
	"fmt"
	"slices"
)

// core is the lock table's decision core: the granule records, the claim
// queue, the hold sets, the waits-for detector and the counters, and
// every grant, park, wound and settle decision made over them. It never
// blocks and never delivers: a call that resolves parked requests —
// claims granted or failed as duplicates, incremental waiters granted,
// wounded, died or chosen as deadlock victims — leaves each record, its
// outcome in err, for take. Table runs every call under its latch; a
// single goroutine may drive a core directly.
type core struct {
	granules map[Granule]*granuleState
	claimQ   []*ParkedClaim // parked conservative claims, in arrival order
	stats    Stats
	det      *Detector
	// unsettled holds the queues a wound took a request from, for
	// wakeStepWaiters; resolved, the requests resolved since the last
	// take. Both are empty between calls.
	unsettled []*granuleState
	resolved  []*ParkedClaim

	held map[TxnID]*holdSet // every transaction's hold set
	// pool recycles emptied hold sets: the per-transaction set is the
	// dominant allocation of a short transaction.
	pool []*holdSet
	// Scratch reused across calls: the records grantable looked up, for
	// grantAll, and the parked claims a release re-evaluates.
	recs  []*granuleState
	cands []*ParkedClaim
}

// granuleResident bounds the granule records the table keeps while they
// are empty. Below it a record outlives its last holder, so the next
// claim of the granule finds it instead of inserting it again; past it, a
// release deletes the empty records it leaves, so a client that names
// ever-new granules cannot grow the map without bound.
const granuleResident = 1 << 16

// granuleState is one granule's record: its holders and its incremental
// waiters. g is the granule it describes.
type granuleState struct {
	g       Granule
	holders []holder
	waiters []*ParkedClaim // FIFO; each a step record (ParkedClaim.step)
}

// holder is one transaction holding a granule, in the join of every mode
// it was granted there.
type holder struct {
	txn  TxnID
	mode Mode
}

// state returns g's record, creating an empty one if absent.
func (c *core) state(g Granule) *granuleState {
	gs := c.granules[g]
	if gs == nil {
		gs = &granuleState{g: g}
		c.granules[g] = gs
	}
	return gs
}

// holderIndex returns the position of txn in gs.holders, or -1.
//
//granulint:hotpath
func (gs *granuleState) holderIndex(txn TxnID) int {
	for i := range gs.holders {
		if gs.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// heldMode returns the mode txn holds gs in, if it holds it.
//
//granulint:hotpath
func (gs *granuleState) heldMode(txn TxnID) (Mode, bool) {
	if i := gs.holderIndex(txn); i >= 0 {
		return gs.holders[i].mode, true
	}
	return 0, false
}

// grant records txn as a holder of gs in mode, joined with what it
// already holds there, and returns the mode it then holds.
//
//granulint:hotpath
func (gs *granuleState) grant(txn TxnID, mode Mode) Mode {
	if i := gs.holderIndex(txn); i >= 0 {
		mode = joinMode(mode, gs.holders[i].mode)
		gs.holders[i].mode = mode
		return mode
	}
	gs.holders = append(gs.holders, holder{txn: txn, mode: mode})
	return mode
}

// drop removes txn from the holders of gs, if it is one. Holder order
// decides nothing, so the last holder takes the vacated slot.
//
//granulint:hotpath
func (gs *granuleState) drop(txn TxnID) {
	if i := gs.holderIndex(txn); i >= 0 {
		last := len(gs.holders) - 1
		gs.holders[i] = gs.holders[last]
		gs.holders = gs.holders[:last]
	}
}

// compatibleWithOthers reports whether mode is compatible with what
// every transaction but txn holds on gs.
//
//granulint:hotpath
func (gs *granuleState) compatibleWithOthers(txn TxnID, mode Mode) bool {
	for _, h := range gs.holders {
		if h.txn != txn && !GCompatible(mode, h.mode) {
			return false
		}
	}
	return true
}

// holdSet is one transaction's hold set: granule → strongest mode
// held, each entry carrying the granule's record so a release reaches it
// without a lookup. Storage is a flat entry vector, which keeps the
// claim/release cycle free of map traffic; a set that incremental
// acquisition (set) grows past holdSpill gains a lookup map alongside
// it. Hold sets are grow-only until the release (2PL releases everything
// at once). waiting and wounded are how AcquireAged reaches a holder it
// wounds.
type holdSet struct {
	entries []holdEntry
	m       map[Granule]Mode // nil, or a complete index of entries
	// waiting is the record of the request AcquireAged has parked, nil
	// once it left its queue (resolve, withdraw): records are pooled, so a
	// record that left may already carry another request, in any table.
	waiting *ParkedClaim
	wounded bool // wounded while unparked: its next grant fails with ErrWounded
	uses    int  // transactions served since the vector grew past holdSpill
}

// holdEntry is one granule of a hold set. gs is the granule's record,
// which cannot be collected while the entry holds it.
type holdEntry struct {
	g    Granule
	mode Mode
	gs   *granuleState
}

// holdSpill is the vector size past which incremental acquisition
// switches its membership test from linear scan to a map, so a long
// claim-as-needed transaction does not go quadratic.
const holdSpill = 16

// holdSetUses is how many transactions a pooled hold set serves, once
// its vector has grown past holdSpill entries, before it is left to the
// collector: like claimRecordUses, it keeps an allocation rate the
// frozen benchmark can see. engine-fine allocates little else: 19.5 B/op
// at 112 uses, and its smoke test passed 20 of 20 runs. A set that never
// grew is never retired: retiring those too added 1.4 B/op, +40 %, to
// locksrv-spread's four-granule claims.
const holdSetUses = 112

// size is a nil-safe len.
func (h *holdSet) size() int {
	if h == nil {
		return 0
	}
	return len(h.entries)
}

// get is a nil-safe lookup.
func (h *holdSet) get(g Granule) (Mode, bool) {
	if h == nil {
		return 0, false
	}
	if h.m != nil {
		mode, ok := h.m[g]
		return mode, ok
	}
	for _, e := range h.entries {
		if e.g == g {
			return e.mode, true
		}
	}
	return 0, false
}

// set records that the transaction holds gs in mode, the join of all it
// was granted there (grant), appending on first acquisition.
func (h *holdSet) set(gs *granuleState, mode Mode) {
	g := gs.g
	if _, ok := h.get(g); ok {
		// Strengthen: rare (re-acquire at a stronger mode), so the
		// vector scan is acceptable even on spilled sets.
		for i := range h.entries {
			if h.entries[i].g == g {
				h.entries[i].mode = mode
				break
			}
		}
		if h.m != nil {
			h.m[g] = mode
		}
		return
	}
	h.entries = append(h.entries, holdEntry{g: g, mode: mode, gs: gs})
	if h.m != nil {
		h.m[g] = mode
	} else if len(h.entries) > holdSpill {
		h.m = make(map[Granule]Mode, 2*len(h.entries))
		for _, e := range h.entries {
			h.m[e.g] = e.mode
		}
	}
}

// holds returns txn's hold set, giving it an empty one, recycled when one
// is pooled, if it has none.
func (c *core) holds(txn TxnID, hint int) *holdSet {
	if hs := c.held[txn]; hs != nil {
		return hs
	}
	var hs *holdSet
	if n := len(c.pool); n > 0 {
		hs = c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
	} else {
		hs = &holdSet{entries: make([]holdEntry, 0, max(hint, 4))}
	}
	c.held[txn] = hs
	return hs
}

// recycleHoldSet clears hs, which is no longer in c.held, and keeps it
// for reuse unless it is due to retire (holdSetUses).
func (c *core) recycleHoldSet(hs *holdSet) {
	if cap(hs.entries) > holdSpill {
		if hs.uses++; hs.uses >= holdSetUses {
			return
		}
	}
	if len(c.pool) >= 64 {
		return
	}
	clear(hs.entries) // do not keep released records reachable
	hs.entries = hs.entries[:0]
	hs.m = nil // spilled accelerator maps are not worth pooling
	hs.waiting, hs.wounded = nil, false
	c.pool = append(c.pool, hs)
}

// wounded reports whether txn carries a wound.
func (c *core) wounded(txn TxnID) bool { return c.held[txn] != nil && c.held[txn].wounded }

// agePolicy is how an incremental request that has to wait is judged:
// by the waits-for detector (Acquire) or by age (AcquireAged).
type agePolicy int8

const (
	ageNone agePolicy = iota
	ageWaitDie
	ageWoundWait
)

// take appends the requests resolved since the last take to out, in the
// order they were resolved, and forgets them: each outcome is now the
// caller's to deliver (ParkedClaim.deliver), exactly once.
//
//granulint:hotpath
func (c *core) take(out []*ParkedClaim) []*ParkedClaim {
	out = append(out, c.resolved...)
	clear(c.resolved) // do not keep delivered records reachable
	c.resolved = c.resolved[:0]
	return out
}

// resolve ends w, which has left its queue, with err, for take.
func (c *core) resolve(w *ParkedClaim, err error) {
	c.unpark(w)
	w.err = err
	c.resolved = append(c.resolved, w)
}

// unpark marks w, which has left its queue, neither parked nor waiting.
func (c *core) unpark(w *ParkedClaim) {
	if hs := c.held[w.txn]; hs != nil && hs.waiting == w {
		hs.waiting = nil
	}
	w.parked = false
}

// coalesceScanMax is the claim size up to which an unsorted request set
// is checked for duplicates by pairwise scan.
const coalesceScanMax = 16

// distinct reports whether no granule appears twice in reqs, when it
// can tell cheaply: strictly ascending input — what the engine and the
// benchmark generators send — in one pass, short input by pairwise
// scan. A long unsorted set reports false without looking further.
//
//granulint:hotpath
func distinct(reqs []Request) bool {
	ascending := true
	for i := 1; i < len(reqs) && ascending; i++ {
		ascending = reqs[i-1].Granule < reqs[i].Granule
	}
	if ascending {
		return true
	}
	if len(reqs) > coalesceScanMax {
		return false
	}
	for i, r := range reqs {
		for _, q := range reqs[:i] {
			if q.Granule == r.Granule {
				return false
			}
		}
	}
	return true
}

// coalesce deduplicates requests, merging duplicate granules to the
// join of their requested modes. A set that distinct vouches for is
// returned as is, and anything else as a sorted, merged copy.
func coalesce(reqs []Request) []Request {
	if distinct(reqs) {
		return reqs
	}
	out := slices.Clone(reqs)
	slices.SortFunc(out, func(a, b Request) int { return cmp.Compare(a.Granule, b.Granule) })
	n := 0
	for _, r := range out[1:] {
		if r.Granule == out[n].Granule {
			out[n].Mode = joinMode(r.Mode, out[n].Mode)
		} else {
			n++
			out[n] = r
		}
	}
	return out[:n+1]
}

// errAlreadyHolds is the first-acquisition-rule failure of txn.
func errAlreadyHolds(txn TxnID) error {
	return fmt.Errorf("lockmgr: transaction %d: %w", txn, ErrAlreadyHolds)
}

// claim decides the conservative claim of reqs, coalesced, by txn: it
// grants the whole set at once if the table allows it now, and otherwise
// changes nothing and reports granted false, for parkClaim to queue the
// claim if it is to wait.
//
//granulint:hotpath
func (c *core) claim(txn TxnID, reqs []Request) (granted bool, err error) {
	if c.held[txn].size() != 0 {
		return false, errAlreadyHolds(txn)
	}
	if len(reqs) == 0 {
		// An empty claim conflicts with nothing; it only has to respect
		// the first-acquisition rule.
		return true, nil
	}
	if !c.grantable(txn, reqs) {
		return false, nil
	}
	c.grantAll(txn, reqs)
	c.stats.Grants++
	return true, nil
}

// parkClaim queues in w the claim of reqs by txn that claim could not
// grant.
func (c *core) parkClaim(w *ParkedClaim, txn TxnID, reqs []Request) {
	if w.reqs == nil {
		w.reqs = w.reqArr[:0]
	}
	w.txn, w.parked, w.step = txn, true, false
	w.reqs = append(w.reqs[:0], reqs...)
	c.claimQ = append(c.claimQ, w)
	c.stats.Blocks++
}

// grantable reports whether every request is compatible with current
// holders other than txn itself, and leaves the records it looked up
// (nil for a granule without one) in c.recs for grantAll.
//
//granulint:hotpath
func (c *core) grantable(txn TxnID, reqs []Request) bool {
	recs := c.recs[:0]
	for _, r := range reqs {
		gs := c.granules[r.Granule]
		if gs != nil && !gs.compatibleWithOthers(txn, r.Mode) {
			c.recs = recs
			return false
		}
		recs = append(recs, gs)
	}
	c.recs = recs
	return true
}

// grantAll records txn, which holds nothing, as holder of every request
// (distinct granules) that grantable has just approved.
//
//granulint:hotpath
func (c *core) grantAll(txn TxnID, reqs []Request) {
	hs := c.holds(txn, len(reqs))
	for i, r := range reqs {
		gs := c.recs[i]
		if gs == nil {
			gs = c.state(r.Granule)
		}
		gs.holders = append(gs.holders, holder{txn: txn, mode: r.Mode})
		hs.entries = append(hs.entries, holdEntry{g: r.Granule, mode: r.Mode, gs: gs})
	}
}

// withdraw takes the request parked in w out of its queue and reports
// whether it was still parked. A step's queue is settled as it leaves:
// the waiters behind it were blocked by it (no overtaking), so the new
// head may be grantable, and the rest lose their edge to it.
func (c *core) withdraw(w *ParkedClaim) bool {
	if !w.parked {
		return false
	}
	c.unpark(w)
	if !w.step {
		c.claimQ = unqueue(c.claimQ, w)
		return true
	}
	gs := c.granules[w.reqArr[0].Granule]
	gs.waiters = unqueue(gs.waiters, w)
	c.det.RemoveWaiter(w.txn)
	c.wakeStepWaiters(gs)
	return true
}

// step decides an incremental request of txn for g in mode, judged by
// age unless age is ageNone: it grants it (nil), fails it (ErrWounded,
// ErrDie), or reports that it must wait, for parkStep to queue it.
func (c *core) step(txn TxnID, g Granule, mode Mode, age agePolicy) (wait bool, err error) {
	gs := c.state(g)
	if have, ok := gs.heldMode(txn); ok && covers(have, mode) {
		return false, nil // already held strongly enough
	}
	if age != ageNone && c.wounded(txn) {
		return false, ErrWounded
	}
	grantable := gs.stepGrantable(txn, mode)
	if !grantable && age != ageNone {
		if c.judge(gs, txn, mode, len(gs.waiters), age) {
			return false, ErrDie
		}
		if len(c.unsettled) > 0 { // a wound emptied a queue, maybe this one
			c.wakeStepWaiters(gs)
			grantable = gs.stepGrantable(txn, mode)
		}
	}
	if grantable {
		c.grantStep(gs, txn, mode)
		c.stats.Grants++
		c.wakeStepWaiters(gs) // an upgrade may have given a parked request a new blocker
		return false, nil
	}
	if age != ageNone && c.wounded(txn) { // wounded while the queues settled
		return false, ErrWounded
	}
	return true, nil
}

// parkStep queues in w the request step found must wait. Under the
// detector, a wait that closes a cycle ends at once: the requester is
// the victim, and w is resolved with ErrDeadlock.
func (c *core) parkStep(w *ParkedClaim, txn TxnID, g Granule, mode Mode, age agePolicy) {
	gs := c.state(g)
	w.txn, w.parked, w.step, w.age = txn, true, true, age
	w.reqArr[0] = Request{Granule: g, Mode: mode}
	if hs := c.held[txn]; hs != nil && age != ageNone {
		hs.waiting = w
	}
	gs.waiters = append(gs.waiters, w)
	c.stats.Blocks++
	if age == ageNone {
		if c.refreshEdges(gs, w, len(gs.waiters)-1); c.det.InCycle(txn) {
			c.victim(gs, w)
		}
	}
}

// upgrade is TryUpgrade's decision.
func (c *core) upgrade(txn TxnID, g Granule, mode Mode) bool {
	have, ok := c.held[txn].get(g)
	gs := c.granules[g] // not nil while txn holds g
	switch {
	case !ok:
		return false
	case covers(have, mode):
		return true
	case !gs.compatibleWithOthers(txn, mode):
		return false
	}
	c.grantStep(gs, txn, mode)
	c.wakeStepWaiters(gs) // the stronger hold may be a parked request's new blocker
	return true
}

// stepGrantable reports whether txn may take gs in mode now. FIFO
// fairness, kept strict to avoid writer starvation: a request never
// overtakes earlier waiters.
func (gs *granuleState) stepGrantable(txn TxnID, mode Mode) bool {
	if !gs.compatibleWithOthers(txn, mode) {
		return false // an upgrade too: only other holders matter
	}
	// No overtaking: if others are already parked on this granule, queue
	// behind them (except pure upgrades, which take priority to drain).
	return len(gs.waiters) == 0 || gs.holderIndex(txn) >= 0
}

// grantStep records txn as holder of gs in mode, in both the granule's
// record and txn's hold set.
func (c *core) grantStep(gs *granuleState, txn TxnID, mode Mode) {
	mode = gs.grant(txn, mode)
	c.holds(txn, 4).set(gs, mode)
}

// unqueue deletes w from q, a claim or wait queue, if it is there.
// Delete clears the vacated tail slot, so a resolved record is not kept
// reachable by the queue's backing array.
func unqueue(q []*ParkedClaim, w *ParkedClaim) []*ParkedClaim {
	if i := slices.Index(q, w); i >= 0 {
		q = slices.Delete(q, i, i+1)
	}
	return q
}

// refreshEdges points w's waits-for edges at the current incompatible
// holders of its granule and at every waiter queued ahead of it (the
// no-overtaking rule makes those real blockers too). idx is w's position
// in gs.waiters.
func (c *core) refreshEdges(gs *granuleState, w *ParkedClaim, idx int) {
	c.det.RemoveWaiter(w.txn)
	for _, h := range gs.holders {
		if h.txn != w.txn && !GCompatible(w.reqArr[0].Mode, h.mode) {
			c.det.AddEdge(w.txn, h.txn)
		}
	}
	for i := 0; i < idx && i < len(gs.waiters); i++ {
		c.det.AddEdge(w.txn, gs.waiters[i].txn)
	}
}

// judge applies age to a request of txn for mode on gs that cannot be
// granted, against its blockers: the holders it conflicts with and the
// first ahead waiters of gs, the ones queued before it. Under wait-die
// it reports true, die, if a blocker is older; under wound-wait it
// wounds every younger blocker.
func (c *core) judge(gs *granuleState, txn TxnID, mode Mode, ahead int, age agePolicy) (die bool) {
	for i := ahead - 1; i >= 0; i-- { // from the back: a wound deletes gs.waiters[i]
		w := gs.waiters[i]
		if age == ageWaitDie && w.txn < txn {
			return true
		}
		if age == ageWoundWait && w.txn > txn {
			c.woundParked(w)
		}
	}
	for _, h := range gs.holders {
		if h.txn == txn || GCompatible(mode, h.mode) {
			continue
		}
		if age == ageWaitDie && h.txn < txn {
			return true
		}
		if age == ageWoundWait && h.txn > txn {
			c.wound(h.txn)
		}
	}
	return false
}

// wound wounds v, a holder: a parked request of v fails now, else v is
// marked.
func (c *core) wound(v TxnID) {
	hs := c.held[v]
	if hs == nil || hs.wounded {
		return
	}
	if w := hs.waiting; w != nil && c.woundParked(w) {
		return
	}
	hs.wounded = true
}

// woundParked fails w with ErrWounded if it is still parked, and reports
// whether it was. Its queue joins c.unsettled to be settled: a request
// that leaves a queue without a release and without a settle strands
// those queued behind it, the lost wake-up that once hung wound-wait
// when wounds cancelled the victim's context.
func (c *core) woundParked(w *ParkedClaim) bool {
	if !w.parked {
		return false
	}
	gs := c.granules[w.reqArr[0].Granule]
	gs.waiters = unqueue(gs.waiters, w)
	c.resolve(w, ErrWounded)
	c.unsettled = append(c.unsettled, gs)
	return true
}

// syncWaiterEdges refreshes the edges of every waiter of gs and aborts
// any whose refreshed edges close a cycle (or that wait-die now
// refuses), reporting whether it aborted one.
func (c *core) syncWaiterEdges(gs *granuleState) (aborted bool) {
	for _, w := range slices.Clone(gs.waiters) {
		idx := slices.Index(gs.waiters, w)
		if idx < 0 {
			continue // aborted by an earlier iteration
		}
		if w.age != ageNone {
			if c.judge(gs, w.txn, w.reqArr[0].Mode, idx, w.age) {
				gs.waiters = unqueue(gs.waiters, w)
				c.resolve(w, ErrDie)
				aborted = true
			}
			continue
		}
		if c.refreshEdges(gs, w, idx); c.det.InCycle(w.txn) {
			c.victim(gs, w)
			aborted = true
		}
	}
	return aborted
}

// victim aborts w, whose wait closes a cycle, with ErrDeadlock.
func (c *core) victim(gs *granuleState, w *ParkedClaim) {
	gs.waiters = unqueue(gs.waiters, w)
	c.det.RemoveWaiter(w.txn)
	c.stats.Deadlocks++
	c.resolve(w, ErrDeadlock)
}

// release releases every granule held by txn, settles the queues it
// freed and re-evaluates, in arrival order, the parked claims that name
// a freed granule.
//
//granulint:hotpath
func (c *core) release(txn TxnID) {
	if c.det.Edges() != 0 {
		// Conservative workloads, whose claims never create an edge, skip
		// the detector entirely.
		c.det.RemoveTxn(txn)
	}
	hs := c.held[txn]
	if hs == nil {
		return
	}
	delete(c.held, txn)
	// Canonical (ascending) wake order: the order in which granules wake
	// their waiters can influence deadlock-victim selection, and releases
	// must make the same decisions on every run. The set is released, so
	// it is sorted in place.
	freed := hs.entries
	slices.SortFunc(freed, func(a, b holdEntry) int { return cmp.Compare(a.g, b.g) })
	for _, e := range freed {
		e.gs.drop(txn)
	}
	for _, e := range freed {
		if len(e.gs.waiters) > 0 {
			c.wakeStepWaiters(e.gs)
		}
	}
	// Pick the parked claims to re-evaluate, in arrival order. A release
	// changes the verdict only of a claim that names a granule it freed:
	// grantable reads nothing but the holders of the claim's own
	// granules.
	cands := c.cands[:0]
	for _, w := range c.claimQ {
		for _, r := range w.reqs {
			if _, ok := slices.BinarySearchFunc(freed, r.Granule, func(e holdEntry, g Granule) int { return cmp.Compare(e.g, g) }); ok {
				cands = append(cands, w)
				break
			}
		}
	}
	if len(c.granules) > granuleResident {
		for _, e := range freed {
			if len(e.gs.holders) == 0 && len(e.gs.waiters) == 0 {
				delete(c.granules, e.g)
			}
		}
	}
	for _, w := range cands {
		c.resolveClaim(w)
	}
	clear(cands)
	c.cands = cands[:0]
	c.recycleHoldSet(hs)
}

// wakeStepWaiters settles gs's queue of incremental waiters after
// anything that can unblock one — a release, a waiter leaving the queue
// without one, an upgrade that re-points edges. It grants from the head
// in FIFO order while compatible, then re-checks those still parked
// (syncWaiterEdges), and repeats until that aborts nobody: an abort can
// expose a grantable head, and a waiter left parked always has an edge
// to what blocks it. A queue a wound took a request from on the way
// (c.unsettled) is settled the same way next.
func (c *core) wakeStepWaiters(gs *granuleState) {
	for c.unsettled = append(c.unsettled, gs); len(c.unsettled) > 0; {
		n := len(c.unsettled) - 1
		gs = c.unsettled[n]
		c.unsettled[n] = nil
		c.unsettled = c.unsettled[:n]
		for unsettled := len(gs.waiters) > 0; unsettled; unsettled = c.syncWaiterEdges(gs) {
			for len(gs.waiters) > 0 {
				w := gs.waiters[0]
				if !gs.compatibleWithOthers(w.txn, w.reqArr[0].Mode) {
					break
				}
				gs.waiters[0] = nil // do not keep the woken waiter reachable
				gs.waiters = gs.waiters[1:]
				c.grantStep(gs, w.txn, w.reqArr[0].Mode)
				c.stats.Grants++
				c.det.RemoveWaiter(w.txn)
				c.resolve(w, nil)
			}
		}
	}
}

// resolveClaim attempts to resolve one parked claim: grant it, or fail it
// as a duplicate of a same-txn grant.
func (c *core) resolveClaim(w *ParkedClaim) {
	if c.held[w.txn].size() != 0 {
		// A duplicate: a retried claim (new session) racing its
		// predecessor's withdrawal. Granting it too would double-book
		// the txn (grantable ignores self-conflicts), so it fails as
		// AcquireAll's entry check would have.
		c.claimQ = unqueue(c.claimQ, w)
		c.resolve(w, errAlreadyHolds(w.txn))
		return
	}
	if !c.grantable(w.txn, w.reqs) {
		return
	}
	c.grantAll(w.txn, w.reqs)
	c.claimQ = unqueue(c.claimQ, w)
	c.stats.Grants++
	c.resolve(w, nil)
}
