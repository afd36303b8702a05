package lockmgr

import (
	"runtime"
	"sync/atomic"
)

// The lock-free uncontended fast path.
//
// The table's latch is the residual hot-path cost of the lock table:
// even a perfectly uncontended acquire/release pair pays two mutex
// round trips plus map traffic under it. The fast path removes both
// for the common case the paper's trade-off curves hinge
// on — a single-granule S or X request against a granule nobody else
// holds — by granting through one compare-and-swap on a packed atomic
// word, and falling back to the latched machinery the moment any
// conflict or waiter is observed. A multi-granule conservative claim
// gets the same economics from a batch of such CASes under the latch
// (fastClaimBatch).
//
// # Packed word
//
// Each fast-eligible granule owns one 64-bit word in the table's
// lock-free index. The word fully describes the granule's fast-path
// state, so CAS ABA is benign (a word that reads the same *is* the
// same state):
//
//	0                                  FREE: no holder, fast grants allowed
//	fpSlowBit                          SLOW: state lives in the latched map;
//	                                   fast ops must take the slow path
//	fpFastBit [|fpModeXBit] | txn      FAST: exactly one holder (txn, in S
//	                                   or X); no waiters, no map entry
//
// Transactions outside (0, 1<<fpTxnBits) cannot be packed and simply
// never use the fast path.
//
// # Invariants
//
//   - Map state authoritative ⇔ word is SLOW. Every slow-path operation
//     demotes the granules it touches (demoteLocked) before reading or
//     writing the map, materializing a FAST holder into the holders map.
//     While a word is SLOW only the latch holder may write it.
//   - FAST or FREE ⇒ no map entry, no step waiters, and no parked claim
//     names the granule: promotion back out of SLOW (promoteLocked)
//     requires zero holders, zero waiters and no claim-queue reference.
//     A fast grant therefore can never overtake a parked request.
//   - FAST ⇒ the holder's mode is S or X. The word has one mode bit, so
//     a request in an intention mode (IS, IX, SIX) never takes a fast
//     grant (fastMode) and finds its granule's state in the map: a
//     transaction that holds a granule FAST and asks for an intention
//     mode on it is demoted like any other slow-path caller, and the
//     join lands in the map. A hold-set entry in an intention mode
//     therefore always names a SLOW word, which fastReleaseAll's CAS
//     cannot match.
//   - The per-transaction hold set is updated in the same holds.mu
//     critical section as the word CAS, so ReleaseAll and the
//     duplicate-claim check serialize against fast grants exactly as
//     against slow ones.
//   - A batch claim CASes its words only while holding the latch and
//     holds.mu. Nothing else can move a word that is FAST for that
//     transaction (demotion needs the latch, the transaction's own
//     release needs holds.mu), so rolling a failed batch back FAST→FREE
//     cannot fail, and what a lock-free probe can see of a batch that
//     rolls back is a holder that released at once.
//
// # Waiting discipline
//
// A conflicting request that finds a FAST single holder spins a bounded
// number of times (runtime.Gosched between probes) before parking
// through the slow path — the spin-then-park discipline of the Oracle
// retrial-spinlock study in PAPERS.md. The budget adapts per granule
// from observed outcomes, which proxy the holder's hold time: a spin
// that wins (hold shorter than the spin window) doubles the budget, a
// spin that exhausts (hold longer) halves it, so long-hold granules
// converge to park-immediately and short-hold granules to spin-and-win.

const (
	fpSlowBit  = 1 << 63
	fpFastBit  = 1 << 61
	fpModeXBit = 1 << 60

	fpSlow = fpSlowBit

	fpTxnBits = 48
	fpTxnMask = (1 << fpTxnBits) - 1

	// The fast index starts at fpMinSlots when its first granule
	// is promoted and doubles whenever it would pass half full, up to
	// fpMaxSlots. Records are never removed, so the cap is what bounds
	// the memory a client naming ever-new granules can pin; a granule
	// that finds the index full at the cap just stays on the slow path.
	fpMinSlots = 64
	fpMaxSlots = 1 << 20

	// Adaptive spin bounds. The seed is deliberately small: a granule
	// must demonstrate short hold times before the table burns cycles
	// on it, and fpSpinMax keeps the worst-case pre-park delay far
	// below any wait a caller could observe as a decision change.
	fpSpinSeed = 8
	fpSpinMin  = 1
	fpSpinMax  = 64
)

// fastMode reports whether a FAST word can carry m: the packed word has
// one mode bit, S or X, so a request in an intention mode — and any
// upgrade into one — is decided under the latch.
//
//granulint:hotpath
func fastMode(m Mode) bool { return m <= ModeExclusive }

// fpPack builds a FAST word: single holder txn in the given mode, S or
// X (fastMode).
//
//granulint:hotpath
func fpPack(txn TxnID, mode Mode) uint64 {
	w := uint64(fpFastBit) | uint64(txn)
	if mode == ModeExclusive {
		w |= fpModeXBit
	}
	return w
}

// fpIsFast reports whether w encodes a single fast holder.
//
//granulint:hotpath
func fpIsFast(w uint64) bool { return w&fpFastBit != 0 && w&fpSlowBit == 0 }

// fpTxnOf extracts the holder of a FAST word.
//
//granulint:hotpath
func fpTxnOf(w uint64) TxnID { return TxnID(w & fpTxnMask) }

// fpModeOf extracts the holder's mode from a FAST word.
//
//granulint:hotpath
func fpModeOf(w uint64) Mode {
	if w&fpModeXBit != 0 {
		return ModeExclusive
	}
	return ModeShared
}

// fpPackable reports whether txn can be encoded in a FAST word.
//
//granulint:hotpath
func fpPackable(txn TxnID) bool { return txn > 0 && txn <= fpTxnMask }

// fastState is one granule's fast-path record. The granule field is
// immutable after publication; all coordination goes through word.
type fastState struct {
	granule Granule
	word    atomic.Uint64
	// spin is the adaptive spin budget for conflicting requests, in
	// Gosched-separated probes (see the waiting-discipline comment).
	spin atomic.Int32
}

// FastPathStats counts fast-path activity. All fields are cumulative.
type FastPathStats struct {
	Grants    int64 // acquisitions granted by CAS alone (claims, steps, upgrades)
	Releases  int64 // ReleaseAll calls completed without the latch
	Fallbacks int64 // fast attempts that deferred to the latched path
	SpinWins  int64 // conflicting requests granted while spinning
	SpinParks int64 // conflicting requests that exhausted their spin budget
}

// FastStats returns a snapshot of the fast-path counters.
func (t *Table) FastStats() FastPathStats {
	return FastPathStats{
		Grants:    t.fpGrants.Load(),
		Releases:  t.fpReleases.Load(),
		Fallbacks: t.fpFallbacks.Load(),
		SpinWins:  t.fpSpinWins.Load(),
		SpinParks: t.fpSpinParks.Load(),
	}
}

// SetFastPath enables or disables the lock-free fast path at runtime.
// Disabling never strands state: granules granted through the fast path
// are migrated into the latched map lazily, the next time any
// slow-path operation touches them.
func (t *Table) SetFastPath(on bool) { t.fastOn.Store(on) }

// FastPathEnabled reports whether the fast path is active.
func (t *Table) FastPathEnabled() bool { return t.fastOn.Load() }

// fastIndex is one generation of the table's lock-free granule index: an
// open-addressed table of shared fastState records, at most half full
// so every probe sequence ends at an empty slot. Slots of a published
// generation only ever move nil→non-nil, under t.mu.
type fastIndex struct {
	slots []atomic.Pointer[fastState]
	mask  uint64
}

// fpHome is where g's probe sequence starts: granule ids are often
// small and sequential, so the index needs a real mixer to spread them.
//
//granulint:hotpath
func fpHome(g Granule) uint64 { return mix64(uint64(g)) }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// put stores fs in the first empty slot of its probe sequence. Caller
// holds t.mu and guarantees the index is not full.
func (ix *fastIndex) put(fs *fastState) {
	for i := fpHome(fs.granule); ; i++ {
		if slot := &ix.slots[i&ix.mask]; slot.Load() == nil {
			slot.Store(fs)
			return
		}
	}
}

// fastLookup finds g's fast record without any lock. A reader racing an
// insert or a growth may miss a record published after it loaded the
// index; a miss only ever sends the caller to the slow path.
//
//granulint:hotpath
func (t *Table) fastLookup(g Granule) *fastState {
	ix := t.fast.Load()
	if ix == nil {
		return nil
	}
	for i := fpHome(g); ; i++ {
		fs := ix.slots[i&ix.mask].Load()
		if fs == nil || fs.granule == g {
			return fs
		}
	}
}

// fastInsert publishes a FREE fast record for g, which must have none
// (the caller looked it up under t.mu, which serializes all index
// writes). An index that would pass half full is replaced
// by one of twice the size holding the same records: they are shared,
// not copied, so a CAS in flight through the old generation lands on
// the word every later reader sees.
func (t *Table) fastInsert(g Granule) {
	ix := t.fast.Load()
	if ix == nil || 2*(t.fastN+1) > len(ix.slots) {
		n := fpMinSlots
		if ix != nil {
			if n = 2 * len(ix.slots); n > fpMaxSlots {
				return
			}
		}
		grown := &fastIndex{slots: make([]atomic.Pointer[fastState], n), mask: uint64(n - 1)}
		if ix != nil {
			for i := range ix.slots {
				if fs := ix.slots[i].Load(); fs != nil {
					grown.put(fs)
				}
			}
		}
		t.fast.Store(grown)
		ix = grown
	}
	fs := &fastState{granule: g}
	fs.spin.Store(fpSpinSeed)
	ix.put(fs)
	t.fastN++
}

// demoteLocked forces g's word to SLOW, materializing a fast holder
// into the map so every existing slow-path routine sees it.
// Caller holds t.mu. Must be called before any slow-path read or write
// of g's map state; returns after which the map is authoritative.
func (t *Table) demoteLocked(g Granule) {
	fs := t.fastLookup(g)
	if fs == nil {
		return // no fast record ⇒ no fast grants possible ⇒ map already authoritative
	}
	for {
		w := fs.word.Load()
		if w&fpSlowBit != 0 {
			return // already SLOW
		}
		if fs.word.CompareAndSwap(w, fpSlow) {
			if fpIsFast(w) {
				t.stateLocked(g).holders[fpTxnOf(w)] = fpModeOf(w)
			}
			return
		}
		// A fast op won the race; its CAS produced a new valid state.
		// Re-read and try again — the mutex guarantees we eventually win.
	}
}

// promoteLocked returns g to fast-path eligibility (word FREE) if it
// ended a slow-path episode with no holders, no waiters, and no parked
// claim naming it; an empty map entry is garbage-collected regardless
// (preserving the historical GC). A granule a parked claim wants must
// stay SLOW: its eventual release has to run the claim-resolution
// sweep, which a fast release deliberately skips. claimed is set by a
// caller that already knows a parked claim names g; otherwise the
// claim queue is searched. Caller holds t.mu.
func (t *Table) promoteLocked(g Granule, claimed bool) {
	if gs := t.granules[g]; gs != nil {
		if len(gs.holders) != 0 || len(gs.waiters) != 0 {
			return
		}
		t.collectLocked(g, gs)
	}
	if claimed {
		return
	}
	for _, c := range t.claimQ {
		for _, r := range c.reqs {
			if r.Granule == g {
				return
			}
		}
	}
	fs := t.fastLookup(g)
	if fs == nil {
		// First promotion is what makes a granule fast-eligible; the
		// insert publishes the word already FREE.
		t.fastInsert(g)
		return
	}
	// While SLOW, only the latch holder writes the word.
	fs.word.Store(0)
}

// fastOutcome classifies one lock-free attempt.
type fastOutcome int8

const (
	fastFallback fastOutcome = iota // defer to the latched path
	fastGranted                     // lock granted (hold set updated)
	fastAlready                     // conservative claim: txn already holds locks
	fastSpin                        // conflicting single holder: spinning may pay
	fastBlocked                     // definitively blocked right now (no-wait callers)
	fastWounded                     // incremental step: txn carries a wound (AcquireAged)
	fastDie                         // incremental step: wait-die refuses to wait (AcquireAged)
)

// fastTryStep is one lock-free attempt at an incremental Acquire.
// It handles re-acquire and sole-holder upgrade; any state it cannot
// prove safe defers to the slow path. A grant checks the wound bit in
// the holds.mu section that records it, so a wounded transaction cannot
// slip a grant past the wound. With fastSpin it also names the holder
// in the way.
//
//granulint:hotpath
func (t *Table) fastTryStep(fs *fastState, txn TxnID, g Granule, mode Mode) (fastOutcome, TxnID) {
	for {
		w := fs.word.Load()
		switch {
		case w == 0:
			h := &t.holds
			h.mu.Lock()
			hs := h.held[txn]
			if hs != nil && hs.wounded {
				h.mu.Unlock()
				return fastWounded, 0
			}
			if fs.word.CompareAndSwap(0, fpPack(txn, mode)) {
				h.recordLocked(txn, hs, g, mode)
				h.mu.Unlock()
				t.fpGrants.Add(1)
				t.omFastGrant()
				return fastGranted, 0
			}
			h.mu.Unlock()
			continue // word moved under us; re-evaluate
		case fpIsFast(w) && fpTxnOf(w) == txn:
			if covers(fpModeOf(w), mode) {
				return fastGranted, 0 // already held strongly enough
			}
			// Sole holder upgrading S→X: grantable by definition.
			h := &t.holds
			h.mu.Lock()
			hs := h.held[txn]
			if hs != nil && hs.wounded {
				h.mu.Unlock()
				return fastWounded, 0
			}
			if fs.word.CompareAndSwap(w, fpPack(txn, ModeExclusive)) {
				h.recordLocked(txn, hs, g, ModeExclusive)
				h.mu.Unlock()
				t.fpGrants.Add(1)
				t.omFastGrant()
				return fastGranted, 0
			}
			h.mu.Unlock()
			return fastFallback, 0 // demoted mid-upgrade; slow path resolves it
		case fpIsFast(w):
			if GCompatible(mode, fpModeOf(w)) {
				// S alongside S: the word cannot encode two holders; the
				// slow path grants it against the materialized holder set.
				return fastFallback, 0
			}
			return fastSpin, fpTxnOf(w)
		default:
			return fastFallback, 0 // SLOW
		}
	}
}

// fastAcquire runs the lock-free attempt plus the adaptive
// spin-then-park discipline for Acquire. It returns fastGranted when the
// grant completed without the latch, fastWounded when txn carries a
// wound, fastDie when wait-die refuses the wait, and fastFallback to
// defer to the slow path. A request judged by age meets the holder in
// its way with the verdict before it spins, not after it parks: a
// wounded holder can then release while the request spins.
//
//granulint:hotpath
func (t *Table) fastAcquire(txn TxnID, g Granule, mode Mode, age agePolicy) fastOutcome {
	fs := t.fastLookup(g)
	if fs == nil {
		return fastFallback
	}
	switch out, holder := t.fastTryStep(fs, txn, g, mode); out {
	case fastGranted, fastWounded:
		return out
	case fastSpin:
		if age != ageNone {
			if out := t.judgeFast(txn, g, mode, holder, age); out != fastSpin {
				return out
			}
		}
		if t.fastSpinThenTry(fs, txn, g, mode) {
			return fastGranted
		}
	}
	t.fpFallbacks.Add(1)
	t.omFastFallback()
	return fastFallback
}

// fastSpinThenTry spins on a conflicting FAST holder, retrying the
// grant after each yield, and adapts the granule's budget from the
// outcome. It reports whether the lock was won while spinning.
//
//granulint:hotpath
func (t *Table) fastSpinThenTry(fs *fastState, txn TxnID, g Granule, mode Mode) bool {
	budget := int(fs.spin.Load())
	for i := 0; i < budget; i++ {
		runtime.Gosched()
		switch out, _ := t.fastTryStep(fs, txn, g, mode); out {
		case fastGranted:
			t.fpSpinWins.Add(1)
			t.omFastSpinWin()
			grow := int32(budget * 2)
			if grow > fpSpinMax {
				grow = fpSpinMax
			}
			fs.spin.Store(grow)
			return true
		case fastSpin:
			continue // still the same shape of conflict; keep probing
		default:
			// SLOW appeared (a waiter is queuing) or another fallback
			// condition: stop spinning immediately, FIFO order beckons.
			return false
		}
	}
	t.fpSpinParks.Add(1)
	t.omFastSpinPark()
	shrink := int32(budget / 2)
	if shrink < fpSpinMin {
		shrink = fpSpinMin
	}
	fs.spin.Store(shrink)
	return false
}

// fastClaim is the lock-free attempt at a single-granule conservative
// claim: the first-acquisition check, the CAS and the hold-set record
// happen in one holds.mu critical section, so duplicate-claim resolution
// and ReleaseAll serialize against it exactly as against the slow path.
//
//granulint:hotpath
func (t *Table) fastClaim(txn TxnID, g Granule, mode Mode, spin bool) fastOutcome {
	fs := t.fastLookup(g)
	if fs == nil {
		return fastFallback
	}
	out := t.fastTryClaimOnce(fs, txn, g, mode)
	if out == fastSpin {
		if !spin {
			// A no-wait caller treats the incompatible holder as a
			// definitive "blocked now" without taking the latch.
			return fastBlocked
		}
		budget := int(fs.spin.Load())
		for i := 0; i < budget; i++ {
			runtime.Gosched()
			out = t.fastTryClaimOnce(fs, txn, g, mode)
			if out != fastSpin {
				break
			}
		}
		switch out {
		case fastGranted:
			t.fpSpinWins.Add(1)
			t.omFastSpinWin()
			grow := int32(budget * 2)
			if grow > fpSpinMax {
				grow = fpSpinMax
			}
			fs.spin.Store(grow)
		case fastSpin:
			t.fpSpinParks.Add(1)
			t.omFastSpinPark()
			shrink := int32(budget / 2)
			if shrink < fpSpinMin {
				shrink = fpSpinMin
			}
			fs.spin.Store(shrink)
			out = fastFallback
		}
	}
	if out == fastFallback {
		t.fpFallbacks.Add(1)
		t.omFastFallback()
	}
	return out
}

// fastTryClaimOnce is one attempt of fastClaim.
//
//granulint:hotpath
func (t *Table) fastTryClaimOnce(fs *fastState, txn TxnID, g Granule, mode Mode) fastOutcome {
	for {
		w := fs.word.Load()
		switch {
		case w == 0:
			h := &t.holds
			h.mu.Lock()
			hs := h.held[txn]
			if hs.size() != 0 {
				h.mu.Unlock()
				return fastAlready
			}
			if fs.word.CompareAndSwap(0, fpPack(txn, mode)) {
				if hs == nil {
					hs = h.allocLocked(1)
					h.held[txn] = hs
				}
				hs.set(g, mode)
				h.mu.Unlock()
				t.fpGrants.Add(1)
				t.omFastGrant()
				return fastGranted
			}
			h.mu.Unlock()
			continue // word moved under us; re-evaluate
		case fpIsFast(w) && fpTxnOf(w) != txn && !GCompatible(mode, fpModeOf(w)):
			return fastSpin
		case fpIsFast(w) && fpTxnOf(w) == txn:
			// The word says txn already holds this granule, so the
			// first-acquisition rule is violated whatever path we take.
			return fastAlready
		default:
			return fastFallback // compatible share or SLOW
		}
	}
}

// fastClaimBatch is the lock-free grant of a multi-granule conservative
// claim: every request's word goes FREE→FAST(txn, mode) and the hold set
// is filled in one append. On the first word that is not FREE (a holder,
// a SLOW episode, a granule never promoted) it frees the words it took
// and reports false, and the caller decides through the map. Caller
// holds t.mu and t.holds.mu, has checked that txn
// holds nothing, and passes distinct granules.
//
//granulint:hotpath
func (t *Table) fastClaimBatch(txn TxnID, reqs []Request) bool {
	for i, r := range reqs {
		fs := t.fastLookup(r.Granule)
		if fs != nil && fastMode(r.Mode) && fs.word.CompareAndSwap(0, fpPack(txn, r.Mode)) {
			continue
		}
		for _, u := range reqs[:i] {
			// Only this goroutine can move a word that is FAST for txn
			// while it holds the latch and holds.mu (see the invariants).
			if !t.fastLookup(u.Granule).word.CompareAndSwap(fpPack(txn, u.Mode), 0) {
				panic("lockmgr: batch claim rollback lost a word it owns")
			}
		}
		t.fpFallbacks.Add(1)
		t.omFastFallback()
		return false
	}
	t.holds.fillLocked(txn, reqs)
	t.fpGrants.Add(1)
	t.omFastGrant()
	return true
}

// fastReleaseAll releases txn's entire hold set by CAS alone when every
// held granule is in FAST state. On any obstacle it restores nothing —
// granules already freed were genuinely released (release is not
// atomic across granules; 2PL only needs acquire-side atomicity) — and
// reports false so the caller finishes through the slow path, which
// reads the shrunken hold set under the latch. Fast-freed granules can have no
// waiters and no parked claims (see the invariants), so skipping the
// wake/claim sweeps is sound, not just fast.
//
//granulint:hotpath
func (t *Table) fastReleaseAll(txn TxnID) bool {
	h := &t.holds
	h.mu.Lock()
	hs := h.held[txn]
	if hs.size() == 0 {
		delete(h.held, txn)
		h.recycleLocked(hs)
		h.mu.Unlock()
		t.detForget(txn)
		return true
	}
	// Walk the entry vector from the tail so a partial release keeps it
	// exact: each freed granule is pruned by truncation, and on an
	// obstacle everything not yet freed is still present for the slow
	// path to release.
	for i := len(hs.entries) - 1; i >= 0; i-- {
		e := hs.entries[i]
		fs := t.fastLookup(e.g)
		if fs == nil || !fs.word.CompareAndSwap(fpPack(txn, e.mode), 0) {
			h.mu.Unlock()
			return false // this granule is slow-path business now
		}
		if hs.m != nil {
			delete(hs.m, e.g)
		}
		hs.entries = hs.entries[:i]
	}
	delete(h.held, txn)
	h.recycleLocked(hs)
	h.mu.Unlock()
	t.fpReleases.Add(1)
	t.omFastRelease()
	t.detForget(txn)
	return true
}

// lockedFastGranules counts FAST-held granules in the index. Caller
// holds t.mu (which freezes slot assignments; the words themselves
// may still move, making the count a snapshot like the rest of Stats).
func (t *Table) lockedFastGranules() int {
	ix := t.fast.Load()
	if ix == nil {
		return 0
	}
	n := 0
	for i := range ix.slots {
		if fs := ix.slots[i].Load(); fs != nil && fpIsFast(fs.word.Load()) {
			n++
		}
	}
	return n
}
