package lockmgr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"granulock/internal/obs"
)

// Mode is a lock mode: shared and exclusive, plus the three intention
// modes of Gray's hierarchical protocol, which a transaction takes on
// the ancestors of what it reads or writes (HierTable). ModeShared and
// ModeExclusive keep the values 0 and 1 that the wire protocol, the
// grant journal and the packed word's mode bit carry.
type Mode int8

const (
	// ModeShared permits concurrent readers.
	ModeShared Mode = iota
	// ModeExclusive permits a single writer.
	ModeExclusive
	// ModeIS signals intent to lock descendants in shared mode.
	ModeIS
	// ModeIX signals intent to lock descendants in exclusive mode.
	ModeIX
	// ModeSIX locks the subtree for reading with intent to write parts.
	ModeSIX
)

var modeNames = [...]string{"S", "X", "IS", "IX", "SIX"}

// String returns the conventional mode name.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int8(m))
	}
	return modeNames[m]
}

// compat is Gray's compatibility matrix, indexed [requested][held].
var compat = [...][5]bool{
	ModeShared:    {ModeShared: true, ModeExclusive: false, ModeIS: true, ModeIX: false, ModeSIX: false},
	ModeExclusive: {ModeShared: false, ModeExclusive: false, ModeIS: false, ModeIX: false, ModeSIX: false},
	ModeIS:        {ModeShared: true, ModeExclusive: false, ModeIS: true, ModeIX: true, ModeSIX: true},
	ModeIX:        {ModeShared: false, ModeExclusive: false, ModeIS: true, ModeIX: true, ModeSIX: false},
	ModeSIX:       {ModeShared: false, ModeExclusive: false, ModeIS: true, ModeIX: false, ModeSIX: false},
}

// GCompatible reports whether a requested mode is compatible with a mode
// held by a different transaction (Gray's matrix).
//
//granulint:hotpath
func GCompatible(requested, held Mode) bool { return compat[requested][held] }

// join is the mode lattice, IS < IX < SIX < X and IS < S < SIX < X:
// join[a][b] is the weakest mode at least as strong as both. It is not
// max: S and IX are unordered and join to SIX.
var join = [...][5]Mode{
	ModeShared:    {ModeShared: ModeShared, ModeExclusive: ModeExclusive, ModeIS: ModeShared, ModeIX: ModeSIX, ModeSIX: ModeSIX},
	ModeExclusive: {ModeShared: ModeExclusive, ModeExclusive: ModeExclusive, ModeIS: ModeExclusive, ModeIX: ModeExclusive, ModeSIX: ModeExclusive},
	ModeIS:        {ModeShared: ModeShared, ModeExclusive: ModeExclusive, ModeIS: ModeIS, ModeIX: ModeIX, ModeSIX: ModeSIX},
	ModeIX:        {ModeShared: ModeSIX, ModeExclusive: ModeExclusive, ModeIS: ModeIX, ModeIX: ModeIX, ModeSIX: ModeSIX},
	ModeSIX:       {ModeShared: ModeSIX, ModeExclusive: ModeExclusive, ModeIS: ModeSIX, ModeIX: ModeSIX, ModeSIX: ModeSIX},
}

// joinMode returns the mode a transaction holds once it has been granted
// both a and b on one granule: every merge of two modes in the table —
// a re-acquisition, a duplicate granule in a claim — goes through it.
//
//granulint:hotpath
func joinMode(a, b Mode) Mode { return join[a][b] }

// covers reports whether holding have makes a request for want
// redundant. Modes are not totally ordered, so this is a join test, not
// a comparison.
//
//granulint:hotpath
func covers(have, want Mode) bool { return join[have][want] == have }

// TxnID identifies a transaction to the lock managers.
type TxnID int64

// Granule identifies a lockable unit.
type Granule int64

// Request names one granule and the mode in which it is wanted.
type Request struct {
	Granule Granule
	Mode    Mode
}

// ErrDeadlock is returned to the victim of a detected deadlock under the
// claim-as-needed protocol. The victim's locks remain held; the caller
// should ReleaseAll and retry.
var ErrDeadlock = errors.New("lockmgr: deadlock detected, transaction chosen as victim")

// ErrWounded and ErrDie are AcquireAged's restart verdicts, wound-wait's
// and wait-die's. Like a deadlock victim's, the loser's locks remain
// held; the caller should ReleaseAll and retry.
var (
	ErrWounded = errors.New("lockmgr: wounded by an older transaction")
	ErrDie     = errors.New("lockmgr: wait-die: the request would wait for an older transaction")
)

// ErrAlreadyHolds is wrapped by AcquireAll when the transaction already
// holds locks: a conservative claim must be the transaction's first
// acquisition. Callers that multiplex transactions over sessions (the
// network lock service) use it to tell a protocol violation from a
// retried claim racing its predecessor's release.
var ErrAlreadyHolds = errors.New("transaction already holds locks; conservative claims must be the first acquisition")

// Stats are monotonically increasing counters of lock-table activity.
type Stats struct {
	Grants    int64 // acquire calls satisfied (immediately or after waiting)
	Blocks    int64 // acquire calls that had to wait
	Deadlocks int64 // claim-as-needed waits aborted as deadlock victims
}

// Table is a granule lock table supporting both conservative
// (all-or-nothing preclaim, deadlock-free) and incremental
// (claim-as-needed, deadlock-detected) acquisition. All methods are safe
// for concurrent use.
//
// One latch, mu, guards the table: the granule map, the queue of parked
// conservative claims, the incremental waiters, the waits-for graph and
// the activity counters. A single-holder grant or release on a granule
// nobody else wants skips it altogether through the lock-free fast path
// (fastpath.go). The per-transaction hold sets sit behind a mutex of
// their own, which the fast path takes instead of the latch and
// everything else takes inside it.
type Table struct {
	mu       sync.Mutex
	granules map[Granule]*granuleState
	// free recycles granule records the release-path GC emptied, so a
	// granule that keeps falling to the slow path (shared readers, a
	// contended hot spot) does not allocate a record and a holders map
	// per episode.
	free   []*granuleState
	claimQ []*ParkedClaim // parked conservative claims, in arrival order
	stats  Stats
	det    *Detector
	// detEdges mirrors det.Edges() so a fast release can skip the latch
	// while nothing in the table waits.
	detEdges atomic.Int64
	// fast is the lock-free granule index (fastpath.go), nil until the
	// first granule is promoted and replaced by a larger one as it fills;
	// fastN counts its records. Both are written under mu; lookups are
	// lock-free.
	fast      atomic.Pointer[fastIndex]
	fastN     int
	unsettled []Granule // queues a wound took a request from, for wakeStepWaiters

	holds holdSets

	om *tableMetrics // nil unless WithMetrics attached

	// Lock-free fast path (fastpath.go). fastOn gates it at runtime; the
	// counters are atomics because fast operations never hold the latch
	// to count under.
	fastOn      atomic.Bool
	fpGrants    atomic.Int64
	fpReleases  atomic.Int64
	fpFallbacks atomic.Int64
	fpSpinWins  atomic.Int64
	fpSpinParks atomic.Int64
}

// granuleFreeMax bounds the table's free list of granule records.
const granuleFreeMax = 256

// stateLocked returns g's map record, creating an empty one if absent.
// Caller holds t.mu. A recycled record may still be referenced by an
// Acquire that parked on its previous granule and was since resolved;
// all such a caller does with it is fail to find its waiter.
func (t *Table) stateLocked(g Granule) *granuleState {
	gs := t.granules[g]
	if gs == nil {
		if n := len(t.free); n > 0 {
			gs = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			gs = &granuleState{holders: make(map[TxnID]Mode, 1)}
		}
		t.granules[g] = gs
	}
	return gs
}

// collectLocked removes g's empty record from the map and keeps it for
// reuse. Caller holds t.mu.
func (t *Table) collectLocked(g Granule, gs *granuleState) {
	delete(t.granules, g)
	if len(t.free) < granuleFreeMax {
		gs.waiters = gs.waiters[:0]
		t.free = append(t.free, gs)
	}
}

// holdSet is one transaction's hold set: granule → strongest mode
// held. Storage is a flat entry vector: hold sets are tiny for the
// dominant transaction shapes, and a vector keeps the claim/release
// cycle free of map traffic — hashing, assignment, and Go's
// randomized iteration setup were the largest costs of a fast-path
// acquire/release pair. A set that outgrows holdSpill gains a lookup
// map maintained alongside the vector; the vector stays authoritative
// for iteration order and modes, the map only accelerates membership
// tests. Only incremental acquisition (set) builds it: a conservative
// claim fills the vector in one append (fillLocked) and is never probed
// per granule. Hold sets are grow-only until teardown (2PL releases
// everything at once); the one per-granule removal, fastReleaseAll,
// prunes from the tail, which a vector supports by truncation. waiting
// and wounded are how AcquireAged reaches a holder it wounds.
type holdSet struct {
	entries []holdEntry
	m       map[Granule]Mode // nil, or a complete index of entries
	waiting *stepWaiter      // last request parked by AcquireAged; stale once it left its queue
	wounded bool             // wounded while unparked: its next grant fails with ErrWounded
}

// holdEntry is one granule of a hold set.
type holdEntry struct {
	g    Granule
	mode Mode
}

// holdSpill is the vector size past which incremental acquisition
// switches its membership test from linear scan to a map. Below it, a
// scan of a cache-resident vector beats a map lookup; above it,
// repeated scans would make a long claim-as-needed transaction
// quadratic.
const holdSpill = 16

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

// set joins mode into g's entry (strengthen-only, like every hold-set
// write), appending on first acquisition.
func (h *holdSet) set(g Granule, mode Mode) {
	if have, ok := h.get(g); ok {
		joined := joinMode(mode, have)
		if joined == have {
			return
		}
		// Strengthen: rare (re-acquire at a stronger mode), so the
		// vector scan is acceptable even on spilled sets.
		for i := range h.entries {
			if h.entries[i].g == g {
				h.entries[i].mode = joined
				break
			}
		}
		if h.m != nil {
			h.m[g] = joined
		}
		return
	}
	h.entries = append(h.entries, holdEntry{g: g, mode: mode})
	if h.m != nil {
		h.m[g] = mode
	} else if len(h.entries) > holdSpill {
		h.m = make(map[Granule]Mode, 2*len(h.entries))
		for _, e := range h.entries {
			h.m[e.g] = e.mode
		}
	}
}

// holdSets is every transaction's hold set. Its mutex is taken alone by
// the fast path and inside the table's latch by everything else, never
// the other way round.
type holdSets struct {
	mu   sync.Mutex
	held map[TxnID]*holdSet
	// pool recycles emptied hold sets: the per-transaction map is the
	// dominant allocation of a single-granule transaction, on the fast
	// and slow paths alike.
	pool []*holdSet
}

// allocLocked returns an empty hold set, reusing a recycled one when
// available. Caller holds h.mu.
func (h *holdSets) allocLocked(hint int) *holdSet {
	if n := len(h.pool); n > 0 {
		hs := h.pool[n-1]
		h.pool[n-1] = nil
		h.pool = h.pool[:n-1]
		return hs
	}
	if hint < 4 {
		hint = 4
	}
	return &holdSet{entries: make([]holdEntry, 0, hint)}
}

// fillLocked records reqs, whose granules are distinct, as the whole
// hold set of txn, which holds nothing: one append into a pooled
// vector, with no membership probe. Caller holds h.mu.
//
//granulint:hotpath
func (h *holdSets) fillLocked(txn TxnID, reqs []Request) {
	hs := h.held[txn]
	if hs == nil {
		hs = h.allocLocked(len(reqs))
		h.held[txn] = hs
	}
	for _, r := range reqs {
		hs.entries = append(hs.entries, holdEntry{g: r.Granule, mode: r.Mode})
	}
}

// recycleLocked clears hs and keeps it for reuse. Safe only once hs is
// unreachable from h.held — no caller retains a hold-set reference
// across an unlock of h.mu. Caller holds h.mu.
func (h *holdSets) recycleLocked(hs *holdSet) {
	if hs == nil || len(h.pool) >= 64 {
		return
	}
	hs.entries = hs.entries[:0]
	hs.m = nil // spilled accelerator maps are not worth pooling
	hs.waiting, hs.wounded = nil, false
	h.pool = append(h.pool, hs)
}

// wounded reports whether txn carries a wound; if not, a non-nil parking
// is recorded as the request txn parks. Caller holds the table's latch.
func (h *holdSets) wounded(txn TxnID, parking *stepWaiter) bool {
	h.mu.Lock()
	hs := h.held[txn]
	wounded := hs != nil && hs.wounded
	if !wounded && hs != nil && parking != nil {
		hs.waiting = parking
	}
	h.mu.Unlock()
	return wounded
}

// tableMetrics mirrors the Stats counters into an obs.Registry, the
// live-scrape view of lock-table activity. Gauges for holders, locked
// granules and parked waiters are registered as functions so they read
// the table's true state at scrape time instead of mirroring it.
type tableMetrics struct {
	grants    *obs.Counter
	waits     *obs.Counter
	deadlocks *obs.Counter

	fpGrants    *obs.Counter
	fpReleases  *obs.Counter
	fpFallbacks *obs.Counter
	fpSpinWins  *obs.Counter
	fpSpinParks *obs.Counter
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
	reg.NewGaugeFunc("granulock_lockmgr_fastpath_enabled",
		"Whether the lock-free uncontended fast path is active (0/1).",
		func() float64 {
			if t.FastPathEnabled() {
				return 1
			}
			return 0
		})
	return &tableMetrics{
		grants: reg.NewCounter("granulock_lockmgr_grants_total",
			"Acquire calls satisfied, immediately or after waiting."),
		waits: reg.NewCounter("granulock_lockmgr_waits_total",
			"Acquire calls that had to wait (lock conflicts)."),
		deadlocks: reg.NewCounter("granulock_lockmgr_deadlocks_total",
			"Claim-as-needed waits aborted as deadlock victims."),
		fpGrants: reg.NewCounter("granulock_lockmgr_fastpath_grants_total",
			"Acquisitions granted by the lock-free fast path (CAS alone, no table latch)."),
		fpReleases: reg.NewCounter("granulock_lockmgr_fastpath_releases_total",
			"ReleaseAll calls completed entirely on the lock-free fast path."),
		fpFallbacks: reg.NewCounter("granulock_lockmgr_fastpath_fallbacks_total",
			"Fast-path attempts that deferred to the latched slow path."),
		fpSpinWins: reg.NewCounter("granulock_lockmgr_fastpath_spin_wins_total",
			"Conflicting requests granted while spinning, before parking."),
		fpSpinParks: reg.NewCounter("granulock_lockmgr_fastpath_spin_parks_total",
			"Conflicting requests that exhausted their spin budget and parked."),
	}
}

// omGrant, omWait and omDeadlock bump the registry twins of the Stats
// counters. They take no locks (obs counters are atomic); the Stats
// counters themselves are incremented under the latch.
func (t *Table) omGrant() {
	if t.om != nil {
		t.om.grants.Inc()
	}
}

func (t *Table) omWait() {
	if t.om != nil {
		t.om.waits.Inc()
	}
}

func (t *Table) omDeadlock() {
	if t.om != nil {
		t.om.deadlocks.Inc()
	}
}

// omFastGrant counts a fast-path grant in both the aggregate grants
// family (a grant is a grant, whatever path served it) and the
// fastpath-specific family.
func (t *Table) omFastGrant() {
	if t.om != nil {
		t.om.grants.Inc()
		t.om.fpGrants.Inc()
	}
}

func (t *Table) omFastRelease() {
	if t.om != nil {
		t.om.fpReleases.Inc()
	}
}

func (t *Table) omFastFallback() {
	if t.om != nil {
		t.om.fpFallbacks.Inc()
	}
}

func (t *Table) omFastSpinWin() {
	if t.om != nil {
		t.om.fpSpinWins.Inc()
	}
}

func (t *Table) omFastSpinPark() {
	if t.om != nil {
		t.om.fpSpinParks.Inc()
	}
}

// granuleState tracks the holders and incremental waiters of one granule.
type granuleState struct {
	holders map[TxnID]Mode
	waiters []*stepWaiter // FIFO
}

// ParkedClaim is the record of a conservative claim that has to wait.
// Its storage belongs to whoever claims: AcquireAllAsync parks the claim
// in the record its caller supplies — typically embedded in the caller's
// own per-request state and reused for the next claim — and a blocking
// AcquireAll draws one, with the channel it waits on, from a pool. A
// record must not be copied, and carries one claim at a time.
//
// While parked, the record sits in the table's claim queue. It is
// resolved (grant, duplicate failure, withdrawal) only under the table's
// latch, which guards the parked flag, so a claim is resolved exactly
// once, by a release or by Withdraw, never both. The outcome of a
// resolved claim is delivered after the latch is dropped (Deliver): to
// Resolve, on the resolving goroutine, or to the channel a blocking
// AcquireAll waits on. From then on the table holds no reference to the
// record, and its owner may park the next claim in it.
type ParkedClaim struct {
	// Resolve receives the outcome of a claim parked by AcquireAllAsync
	// (nil for a grant). The owner sets it once, before the record's
	// first use — a method value bound when the owner is made costs its
	// one allocation there, not per claim. It must not block.
	Resolve func(error)

	txn    TxnID
	reqs   []Request     // the table's copy of the claim
	ch     chan struct{} // pool records only: a blocking AcquireAll waits here for err
	err    error         // the outcome of a resolved claim
	parked bool          // queued; guarded by the table's latch
	uses   int           // pool records only: claims carried so far

	// Where reqs starts out; a larger claim spills to a slice the record
	// then keeps.
	reqArr [claimInline]Request
}

// claimInline is the claim size a record holds without spilling: like
// the table's other fixed buffers (releaseBufCap), the mean
// transaction's sixteen granules.
const claimInline = 16

// claimPool holds the records of blocking AcquireAll calls, each with
// its one-slot outcome channel, empty whenever the record is pooled.
var claimPool = sync.Pool{New: func() any { return &ParkedClaim{ch: make(chan struct{}, 1)} }}

// claimRecordUses is how many claims a pooled record carries before it
// is left to the collector. Nothing in the table needs a record retired:
// this keeps the blocking path's allocation rate at 1/24 of a record and
// its channel per blocked claim instead of exactly zero, which the
// repository's frozen benchmark cannot report — it compares end-to-end
// metrics as ratios and refuses a zero as "not measured"
// (benchmark/metrics.go, render), so with every claim blocking and
// nothing allocated engine-coarse has no result at all. The runtime
// counts small allocations a span at a time, and the benchmark's smoke
// test cuts 200 ms into ten slices of which five must see one. A record
// is 336 bytes, 23 to a span of its size class, so at 24 a span is
// refilled every ~550 blocked claims: about as often as a 512-byte
// record retired every 32 was, which read zero in 1 of about 100 runs
// (at 64 with a 200-byte record, 7 of 8).
const claimRecordUses = 24

// Requests returns the table's copy of the claim last parked in w: what
// a continuation needs to finish the request. It is valid until w is
// parked again.
func (w *ParkedClaim) Requests() []Request { return w.reqs }

// Deliver hands a resolved claim its outcome. The table calls it for
// every claim it resolves except those ReleaseAllDeferred returns,
// which the caller must deliver, each exactly once. It is the table's
// last use of the record.
//
//granulint:hotpath
func (w *ParkedClaim) Deliver() {
	if w.Resolve != nil {
		w.Resolve(w.err)
		return
	}
	w.ch <- struct{}{}
}

// recycle returns the record of a finished blocking claim to the pool.
func (w *ParkedClaim) recycle() {
	if w.uses++; w.uses >= claimRecordUses {
		return
	}
	claimPool.Put(w)
}

// stepWaiter is a parked incremental Acquire request.
type stepWaiter struct {
	txn     TxnID
	granule Granule
	mode    Mode
	age     agePolicy
	ch      chan error
}

// agePolicy is how an incremental request that has to wait is judged:
// by the waits-for detector (Acquire) or by age (AcquireAged).
type agePolicy int8

const (
	ageNone agePolicy = iota
	ageWaitDie
	ageWoundWait
)

// Option configures a Table.
type Option func(*tableConfig)

type tableConfig struct {
	reg  *obs.Registry
	fast bool
}

// WithMetrics mirrors the table's activity into reg: grant/wait/
// deadlock counters plus scrape-time gauges for holders, locked
// granules and parked waiters (family prefix granulock_lockmgr_). One
// table per registry: the gauges read this table's state.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *tableConfig) { c.reg = reg }
}

// WithFastPath enables or disables the lock-free uncontended fast path
// (fastpath.go) at construction; the default is enabled. Disabled, every
// operation takes the table's latch. SetFastPath flips the switch at
// runtime.
func WithFastPath(on bool) Option {
	return func(c *tableConfig) { c.fast = on }
}

// NewTable returns an empty lock table.
func NewTable(opts ...Option) *Table {
	cfg := tableConfig{fast: true}
	for _, o := range opts {
		o(&cfg)
	}
	t := &Table{
		granules: make(map[Granule]*granuleState),
		holds:    holdSets{held: make(map[TxnID]*holdSet)},
		det:      NewDetector(),
	}
	t.fastOn.Store(cfg.fast)
	if cfg.reg != nil {
		t.om = newTableMetrics(cfg.reg, t)
	}
	return t
}

// Stats returns a snapshot of the activity counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	s := t.stats
	t.mu.Unlock()
	// Fast-path grants never held the latch; they accumulate in an
	// atomic and fold in here so Grants counts every acquisition
	// whatever path served it.
	s.Grants += t.fpGrants.Load()
	return s
}

// HeldBy returns the number of granules txn currently holds.
func (t *Table) HeldBy(txn TxnID) int {
	t.holds.mu.Lock()
	defer t.holds.mu.Unlock()
	return t.holds.held[txn].size()
}

// HoldersCount returns the number of transactions currently holding at
// least one granule. A clean table reports 0; after a drain this is the
// residual-holder count a lock service must bring to zero.
func (t *Table) HoldersCount() int {
	t.holds.mu.Lock()
	defer t.holds.mu.Unlock()
	n := 0
	for _, hm := range t.holds.held {
		if hm.size() > 0 {
			n++
		}
	}
	return n
}

// LockedGranules returns the number of granules with at least one
// holder. A granule held through the fast path has no map entry — its
// holder lives in the packed word — so both populations are counted;
// they are disjoint by the fast-path invariant (FAST word ⇔ no map
// entry).
func (t *Table) LockedGranules() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.lockedFastGranules()
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

// granuleRecords counts granule entries, including empty ones awaiting
// GC (test hook for the release-path GC).
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
	t.holds.mu.Lock()
	have, ok := t.holds.held[txn].get(g)
	t.holds.mu.Unlock()
	return have, ok
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

// AcquireAll atomically acquires every requested granule, or parks the
// whole claim until it can: the conservative protocol of the paper, under
// which deadlock is impossible because a transaction holds nothing while
// it waits. Duplicate granules are coalesced to their strongest mode.
// AcquireAll returns early with ctx.Err() if the context is cancelled
// while parked.
//
// A blocked claim joins the table's claim queue and is re-evaluated, in
// arrival order, whenever a release frees one of its granules.
func (t *Table) AcquireAll(ctx context.Context, txn TxnID, reqs []Request) error {
	_, w, err := t.claim(txn, reqs, true, nil)
	if w == nil {
		return err
	}
	select {
	case <-w.ch:
		err = w.err
	case <-ctx.Done():
		if t.Withdraw(w) {
			err = ctx.Err()
		} else {
			// The claim was resolved before we could withdraw it — granted,
			// or failed as a duplicate of a same-txn grant — so report that
			// outcome.
			<-w.ch
			err = w.err
		}
	}
	w.recycle()
	return err
}

// AcquireAllAsync is AcquireAll for a caller that must not block. A
// claim the table can decide now is decided as by TryAcquireAll and
// leaves pc untouched. Otherwise the claim parks in pc, which is
// returned: pc.Resolve then runs exactly once with the outcome (nil for
// a grant), on the goroutine whose release resolved the claim and after
// that goroutine dropped the table's latch — unless Withdraw takes the
// claim back first. The table copies reqs into pc (Requests), so the
// slice is the caller's again when the call returns. pc must not hold a
// parked claim.
func (t *Table) AcquireAllAsync(txn TxnID, reqs []Request, pc *ParkedClaim) (granted bool, parked *ParkedClaim, err error) {
	return t.claim(txn, reqs, true, pc)
}

// TryAcquireAll attempts the conservative claim without parking: it
// grants atomically if every granule is free right now and otherwise
// changes nothing, reporting granted=false. The error return carries
// only protocol violations (ErrAlreadyHolds); a claim that would block
// is not an error. This is AcquireAll's fast path exposed on its own so
// callers measuring wait times can skip the clock entirely for grants
// that never waited.
func (t *Table) TryAcquireAll(txn TxnID, reqs []Request) (bool, error) {
	granted, _, err := t.claim(txn, reqs, false, nil)
	return granted, err
}

// claim is the conservative-claim core behind AcquireAll,
// AcquireAllAsync and TryAcquireAll. It grants the whole request set at
// once if the table allows it now. If not, and park is set, it queues
// the claim, in w or, when w is nil (the blocking form, whose outcome
// goes to the record's channel), in a pooled record, and returns that
// record; otherwise it changes nothing.
//
// A one-request claim tries the lock-free word first. Everything else
// is decided under the latch: a batch of CASes that succeeds exactly
// when every granule is FREE — a state in which the map path below
// would have granted too — and, after it, the map path itself, which
// also serves shared readers and granules a waiter keeps SLOW.
//
//granulint:hotpath
func (t *Table) claim(txn TxnID, reqs []Request, park bool, w *ParkedClaim) (granted bool, parked *ParkedClaim, err error) {
	fast := t.fastOn.Load() && fpPackable(txn)
	if len(reqs) != 1 {
		reqs = coalesce(reqs)
	} else if fast && fastMode(reqs[0].Mode) {
		// The dominant shape at coarse granularity needs no coalescing
		// or latch, on this path or the next.
		switch t.fastClaim(txn, reqs[0].Granule, reqs[0].Mode, park) {
		case fastGranted:
			return true, nil, nil
		case fastAlready:
			return false, nil, errAlreadyHolds(txn)
		case fastBlocked:
			// A single incompatible fast holder is a definitive answer
			// for a claim that will not wait: it would not be grantable
			// under the latch either.
			return false, nil, nil
		}
	}
	h := &t.holds
	if len(reqs) == 0 {
		// An empty claim conflicts with nothing; it only has to respect
		// the first-acquisition rule.
		h.mu.Lock()
		already := h.held[txn].size() != 0
		h.mu.Unlock()
		if already {
			return false, nil, errAlreadyHolds(txn)
		}
		return true, nil, nil
	}
	t.mu.Lock()
	h.mu.Lock()
	if h.held[txn].size() != 0 {
		h.mu.Unlock()
		t.mu.Unlock()
		return false, nil, errAlreadyHolds(txn)
	}
	if fast && len(reqs) > 1 && t.fastClaimBatch(txn, reqs) {
		h.mu.Unlock()
		t.mu.Unlock()
		return true, nil, nil
	}
	t.demoteAllLocked(reqs)
	if t.grantable(txn, reqs) {
		t.grantAll(txn, reqs)
		h.mu.Unlock()
		t.stats.Grants++
		t.mu.Unlock()
		t.omGrant()
		return true, nil, nil
	}
	h.mu.Unlock()
	if !park {
		// The failed probe demoted granules it is not going to hold;
		// give the holderless ones their fast-path eligibility back.
		for _, r := range reqs {
			t.promoteLocked(r.Granule, false)
		}
		t.mu.Unlock()
		return false, nil, nil
	}
	if w == nil {
		w = claimPool.Get().(*ParkedClaim)
	}
	if w.reqs == nil {
		w.reqs = w.reqArr[:0]
	}
	w.txn, w.parked = txn, true
	w.reqs = append(w.reqs[:0], reqs...)
	t.claimQ = append(t.claimQ, w)
	t.stats.Blocks++
	t.mu.Unlock()
	t.omWait()
	return false, w, nil
}

// demoteAllLocked demotes every requested granule, making the map
// authoritative before a multi-granule slow-path decision. Caller holds
// t.mu.
func (t *Table) demoteAllLocked(reqs []Request) {
	for _, r := range reqs {
		t.demoteLocked(r.Granule)
	}
}

// grantable reports whether every request is compatible with current
// holders other than txn itself. Caller holds t.mu.
func (t *Table) grantable(txn TxnID, reqs []Request) bool {
	for _, r := range reqs {
		gs := t.granules[r.Granule]
		if gs != nil && !compatibleWithOthers(gs, txn, r.Mode) {
			return false
		}
	}
	return true
}

// grantAll records txn, which holds nothing, as holder of every request
// (distinct granules). Caller holds t.mu and t.holds.mu.
func (t *Table) grantAll(txn TxnID, reqs []Request) {
	for _, r := range reqs {
		t.stateLocked(r.Granule).holders[txn] = r.Mode
	}
	t.holds.fillLocked(txn, reqs)
}

// Withdraw takes a parked claim back: it removes the claim from the
// claim queue and reports whether it was still parked. True means the
// claim's outcome will never be delivered; false means a release
// resolved it first and its outcome is, or is about to be, delivered.
// Only the record's owner may call it, and only on the claim it parked:
// a late Withdraw that could reach the record's next claim would end
// that claim instead.
//
//granulint:hotpath
func (t *Table) Withdraw(w *ParkedClaim) bool {
	t.mu.Lock()
	if !w.parked {
		t.mu.Unlock()
		return false
	}
	t.removeClaimLocked(w)
	w.parked = false
	// Granules only this claim was keeping slow can go fast again.
	for _, r := range w.reqs {
		t.promoteLocked(r.Granule, false)
	}
	t.mu.Unlock()
	return true
}

// removeClaimLocked deletes w from the claim queue. Caller holds t.mu.
func (t *Table) removeClaimLocked(w *ParkedClaim) {
	if i := slices.Index(t.claimQ, w); i >= 0 {
		// Delete clears the vacated tail slot, so the resolved record is
		// not kept reachable by the queue's backing array.
		t.claimQ = slices.Delete(t.claimQ, i, i+1)
	}
}

// Acquire incrementally acquires one granule (the claim-as-needed
// protocol). It may wait; if the wait would close a cycle in the
// waits-for graph the request fails with ErrDeadlock and the caller is
// the victim. A mode txn already holds on g is joined with the request
// (S held and X requested gives X, S and IX give SIX); such an upgrade
// waits for the holders it conflicts with to drain.
func (t *Table) Acquire(ctx context.Context, txn TxnID, g Granule, mode Mode) error {
	return t.acquireStep(ctx, txn, g, mode, ageNone)
}

// AcquireAged is Acquire with conflicts resolved by age, the TxnID
// (smaller is older), instead of by the detector. A request that has to
// wait is judged, under the latch that would park it, against its
// blockers: the holders it conflicts with and the requests queued ahead
// of it. Under wait-die (wound false) it fails with ErrDie if one is
// older. Under wound-wait every younger one is wounded: a parked victim
// fails at once with ErrWounded, an unparked one at its next request
// that needs a grant, and one that never asks again keeps its locks
// until it releases. Parked requests are judged again when their queue
// settles, since an upgrade can hand them a new blocker. So every wait
// edge obeys age, or ends at a wounded transaction that never waits
// again, and no cycle can form. A table's incremental requests should
// all take one of Acquire or AcquireAged with one policy. A retry may
// reuse its TxnID, keeping its age, once ReleaseAll has run; the release
// also clears its wound.
func (t *Table) AcquireAged(ctx context.Context, txn TxnID, g Granule, mode Mode, wound bool) error {
	age := ageWaitDie
	if wound {
		age = ageWoundWait
	}
	return t.acquireStep(ctx, txn, g, mode, age)
}

// acquireStep is the core of Acquire and AcquireAged.
func (t *Table) acquireStep(ctx context.Context, txn TxnID, g Granule, mode Mode, age agePolicy) error {
	if fastMode(mode) && t.fastOn.Load() && fpPackable(txn) {
		switch t.fastAcquire(txn, g, mode, age) {
		case fastGranted:
			return nil
		case fastWounded:
			return ErrWounded
		case fastDie:
			return ErrDie
		}
	}
	t.mu.Lock()
	t.demoteLocked(g)
	gs := t.stateLocked(g)
	if have, ok := gs.holders[txn]; ok && covers(have, mode) {
		t.mu.Unlock()
		return nil // already held strongly enough
	}
	if age != ageNone && t.holds.wounded(txn, nil) {
		t.mu.Unlock()
		return ErrWounded
	}
	grantable := t.stepGrantable(gs, txn, mode)
	if !grantable && age != ageNone {
		if t.judgeLocked(gs, txn, mode, len(gs.waiters), age) {
			t.mu.Unlock()
			return ErrDie
		}
		if len(t.unsettled) > 0 { // a wound emptied a queue, maybe this one
			t.wakeStepWaiters(g)
			grantable = t.stepGrantable(gs, txn, mode)
		}
	}
	if grantable {
		t.grantStep(gs, txn, g, mode)
		t.stats.Grants++
		t.wakeStepWaiters(g) // an upgrade may have given a parked request a new blocker
		t.mu.Unlock()
		t.omGrant()
		return nil
	}
	w := &stepWaiter{txn: txn, granule: g, mode: mode, age: age, ch: make(chan error, 1)}
	if age != ageNone && t.holds.wounded(txn, w) { // wounded while the queues settled
		t.mu.Unlock()
		return ErrWounded
	}
	gs.waiters = append(gs.waiters, w)
	t.stats.Blocks++
	if age == ageNone {
		t.refreshEdgesLocked(gs, w, len(gs.waiters)-1)
		if t.det.InCycle(txn) {
			// The newest edge closed a cycle: this requester is the victim.
			t.dropWaiter(gs, w)
			t.det.RemoveWaiter(txn)
			t.stats.Deadlocks++
			t.mirrorEdges()
			t.mu.Unlock()
			t.omDeadlock()
			return ErrDeadlock
		}
		t.mirrorEdges()
	}
	t.mu.Unlock()
	t.omWait()

	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		t.mu.Lock()
		if t.dropWaiter(gs, w) {
			t.det.RemoveWaiter(txn)
			t.mirrorEdges()
			// Waiters queued behind w were blocked by it (no overtaking):
			// with w gone the new head may be grantable, and the rest
			// must lose their ahead-edge to it.
			t.wakeStepWaiters(g)
			t.mu.Unlock()
			return ctx.Err()
		}
		t.mu.Unlock()
		return <-w.ch
	}
}

// TryUpgrade strengthens the hold txn has on g to its join with mode if
// every other holder is compatible with mode right now, and reports
// whether txn holds the join afterwards. It never waits, so it cannot
// deadlock; it overtakes requests parked on g, as every upgrade does;
// and it is not an acquire call, so it counts no grant. Lock escalation
// (HierTable) is its caller: trading many fine locks for one coarse one
// is worth having only when it is free.
func (t *Table) TryUpgrade(txn TxnID, g Granule, mode Mode) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.demoteLocked(g)
	gs := t.granules[g]
	if gs == nil {
		return false
	}
	have, ok := gs.holders[txn]
	switch {
	case !ok:
		return false
	case covers(have, mode):
		return true
	case !compatibleWithOthers(gs, txn, mode):
		return false
	}
	t.grantStep(gs, txn, g, mode)
	t.wakeStepWaiters(g) // the stronger hold may be a parked request's new blocker
	return true
}

// compatibleWithOthers reports whether mode is compatible with what
// every transaction but txn holds on gs. Caller holds t.mu.
func compatibleWithOthers(gs *granuleState, txn TxnID, mode Mode) bool {
	for holder, held := range gs.holders {
		if holder != txn && !GCompatible(mode, held) {
			return false
		}
	}
	return true
}

// stepGrantable reports whether txn may take g in mode now. Caller holds
// t.mu. FIFO fairness: a request must also not overtake earlier waiters
// unless it is compatible with them too (readers may join readers even
// if a writer waits only when they precede the writer; we keep it
// simple and strict to avoid writer starvation).
func (t *Table) stepGrantable(gs *granuleState, txn TxnID, mode Mode) bool {
	if !compatibleWithOthers(gs, txn, mode) {
		return false // an upgrade too: only other holders matter
	}
	// No overtaking: if others are already parked on this granule, queue
	// behind them (except pure upgrades, which take priority to drain).
	if _, upgrading := gs.holders[txn]; !upgrading && len(gs.waiters) > 0 {
		return false
	}
	return true
}

// grantStep records txn as holder of g, in both the granule's record and
// txn's hold set. Caller holds t.mu.
func (t *Table) grantStep(gs *granuleState, txn TxnID, g Granule, mode Mode) {
	if have, ok := gs.holders[txn]; ok {
		mode = joinMode(mode, have)
	}
	gs.holders[txn] = mode
	h := &t.holds
	h.mu.Lock()
	h.recordLocked(txn, h.held[txn], g, mode)
	h.mu.Unlock()
}

// recordLocked updates hs, txn's hold set or nil if it has none yet,
// with g at mode (strengthen only). Caller holds h.mu — the fast path
// keeps the hold-set update inside the same critical section as its
// word CAS.
func (h *holdSets) recordLocked(txn TxnID, hs *holdSet, g Granule, mode Mode) {
	if hs == nil {
		hs = h.allocLocked(4)
		h.held[txn] = hs
	}
	hs.set(g, mode)
}

// dropWaiter removes w from its granule's wait queue; reports whether it
// was still parked. Caller holds t.mu.
func (t *Table) dropWaiter(gs *granuleState, w *stepWaiter) bool {
	for i, x := range gs.waiters {
		if x == w {
			gs.waiters = slices.Delete(gs.waiters, i, i+1)
			return true
		}
	}
	return false
}

// refreshEdgesLocked points w's waits-for edges at the current
// incompatible holders of its granule and at every waiter queued ahead
// of it (the no-overtaking rule makes those real blockers too). idx is
// w's position in gs.waiters. Caller holds t.mu.
func (t *Table) refreshEdgesLocked(gs *granuleState, w *stepWaiter, idx int) {
	t.det.RemoveWaiter(w.txn)
	for holder, held := range gs.holders {
		if holder != w.txn && !GCompatible(w.mode, held) {
			t.det.AddEdge(w.txn, holder)
		}
	}
	for i := 0; i < idx && i < len(gs.waiters); i++ {
		t.det.AddEdge(w.txn, gs.waiters[i].txn)
	}
}

// judgeLocked applies age to a request of txn for mode on gs that cannot
// be granted, against its blockers: the holders it conflicts with and
// the first ahead waiters of gs, the ones queued before it. Under
// wait-die it reports true, die, if a blocker is older; under wound-wait
// it wounds every younger blocker. Caller holds t.mu.
func (t *Table) judgeLocked(gs *granuleState, txn TxnID, mode Mode, ahead int, age agePolicy) (die bool) {
	for i := ahead - 1; i >= 0; i-- { // from the back: a wound deletes gs.waiters[i]
		w := gs.waiters[i]
		if age == ageWaitDie && w.txn < txn {
			return true
		}
		if age == ageWoundWait && w.txn > txn {
			t.woundParkedLocked(gs, w)
		}
	}
	for holder, held := range gs.holders {
		if holder == txn || GCompatible(mode, held) {
			continue
		}
		if age == ageWaitDie && holder < txn {
			return true
		}
		if age == ageWoundWait && holder > txn {
			t.woundLocked(holder)
		}
	}
	return false
}

// judgeFast is judgeLocked for a granule whose lock-free word named one
// conflicting holder, before the request spins: a wounded holder can
// then release while it spins, not after it parks. It returns fastDie or
// fastWounded for a request that fails, fastSpin for one that may wait.
func (t *Table) judgeFast(txn TxnID, g Granule, mode Mode, holder TxnID, age agePolicy) fastOutcome {
	if age == ageWaitDie {
		if held, ok := t.heldMode(holder, g); ok && holder < txn && !GCompatible(mode, held) {
			return fastDie
		}
		return fastSpin
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.holds.wounded(txn, nil) {
		return fastWounded // a wounded request wounds nobody
	}
	if held, ok := t.heldMode(holder, g); ok && holder > txn && !GCompatible(mode, held) {
		t.woundLocked(holder)
		t.wakeStepWaiters(g) // g has no queue; this settles what the wound unsettled
	}
	return fastSpin
}

// woundLocked wounds v, a holder: a parked request of v fails now, else
// v is marked. Caller holds t.mu.
func (t *Table) woundLocked(v TxnID) {
	h := &t.holds
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := h.held[v]
	if hs == nil || hs.wounded {
		return
	}
	if w := hs.waiting; w != nil {
		if gs := t.granules[w.granule]; gs != nil && t.woundParkedLocked(gs, w) {
			return
		}
	}
	hs.wounded = true
}

// woundParkedLocked fails w with ErrWounded if it is still parked in gs,
// and reports whether it was. Its queue joins t.unsettled to be settled:
// a request that leaves a queue without a release and without a settle
// strands those queued behind it, the lost wake-up that once hung
// wound-wait when wounds cancelled the victim's context. Caller holds
// t.mu.
func (t *Table) woundParkedLocked(gs *granuleState, w *stepWaiter) bool {
	if !t.dropWaiter(gs, w) {
		return false
	}
	w.ch <- ErrWounded
	t.unsettled = append(t.unsettled, w.granule)
	return true
}

// syncWaiterEdgesLocked refreshes the edges of every waiter of gs and
// aborts any whose refreshed edges close a cycle (or that wait-die now
// refuses), reporting whether it aborted one. Caller holds t.mu.
func (t *Table) syncWaiterEdgesLocked(gs *granuleState) (aborted bool) {
	remaining := append([]*stepWaiter(nil), gs.waiters...)
	for _, w := range remaining {
		idx := slices.Index(gs.waiters, w)
		if idx < 0 {
			continue // aborted by an earlier iteration
		}
		if w.age != ageNone {
			if t.judgeLocked(gs, w.txn, w.mode, idx, w.age) {
				t.dropWaiter(gs, w)
				w.ch <- ErrDie
				aborted = true
			}
			continue
		}
		t.refreshEdgesLocked(gs, w, idx)
		if t.det.InCycle(w.txn) {
			t.dropWaiter(gs, w)
			t.det.RemoveWaiter(w.txn)
			t.stats.Deadlocks++
			t.omDeadlock()
			w.ch <- ErrDeadlock
			aborted = true
		}
	}
	return aborted
}

// mirrorEdges refreshes the lock-free edge-count mirror. Caller holds
// t.mu.
func (t *Table) mirrorEdges() {
	t.detEdges.Store(int64(t.det.Edges()))
}

// detForgetLocked clears txn from the waits-for graph, if the graph has
// any edge at all: conservative workloads, whose claims never create
// one, skip the detector entirely. Caller holds t.mu.
func (t *Table) detForgetLocked(txn TxnID) {
	if t.detEdges.Load() == 0 {
		return
	}
	t.det.RemoveTxn(txn)
	t.mirrorEdges()
}

// detForget is detForgetLocked for the fast release, which holds no
// lock: it takes the latch only when the graph has an edge.
func (t *Table) detForget(txn TxnID) {
	if t.detEdges.Load() == 0 {
		return
	}
	t.mu.Lock()
	t.detForgetLocked(txn)
	t.mu.Unlock()
}

// ReleaseAll releases every granule held by txn, wakes whatever can now
// run, and clears txn from the waits-for graph. Parked claims that name
// a released granule are re-evaluated in arrival order, and the
// outcomes of those it resolves are delivered last, once the latch has
// been dropped.
func (t *Table) ReleaseAll(txn TxnID) {
	var buf [releaseBufCap]*ParkedClaim
	for _, w := range t.ReleaseAllDeferred(txn, buf[:0]) {
		w.Deliver()
	}
}

// releaseBufCap sizes the on-stack buffers of a slow release: the
// granules freed, the parked claims to re-evaluate and the claims
// resolved. A release past any of them allocates.
const releaseBufCap = 16

// ReleaseAllDeferred is the release core, and ReleaseAll for a caller
// that holds a lock of its own which the resolve callbacks of parked
// claims take: it appends the claims the release resolved to resolved
// instead of delivering their outcomes, and the caller calls Deliver on
// each once it has dropped that lock.
func (t *Table) ReleaseAllDeferred(txn TxnID, resolved []*ParkedClaim) []*ParkedClaim {
	// When every held granule is fast-held, the whole release is CAS
	// traffic; the attempt costs one hold-set scan and never undoes
	// progress (release needs no cross-granule atomicity).
	if t.fastOn.Load() && fpPackable(txn) && t.fastReleaseAll(txn) {
		return resolved
	}
	var fbuf [releaseBufCap]Granule
	freed := fbuf[:0]
	t.mu.Lock()
	h := &t.holds
	h.mu.Lock()
	if hm := h.held[txn]; hm != nil {
		for _, e := range hm.entries {
			freed = append(freed, e.g)
		}
		h.recycleLocked(hm)
	}
	delete(h.held, txn)
	h.mu.Unlock()
	t.detForgetLocked(txn)
	if len(freed) == 0 {
		t.mu.Unlock()
		return resolved
	}
	// Canonical (ascending) wake order: the order in which granules wake
	// their waiters can influence deadlock-victim selection, and releases
	// must make the same decisions on every run. Granules still held
	// through the fast path (fastReleaseAll skipped or beaten to a
	// granule) are materialized into the map before the release.
	slices.Sort(freed)
	for _, g := range freed {
		t.demoteLocked(g)
		if gs := t.granules[g]; gs != nil {
			delete(gs.holders, txn)
		}
	}
	for _, g := range freed {
		t.wakeStepWaiters(g)
	}
	// Pick the parked claims to re-evaluate, in arrival order. A release
	// changes the verdict only of a claim that names a granule it freed:
	// grantable reads nothing but the holders of the claim's own
	// granules.
	var cbuf [releaseBufCap]*ParkedClaim
	cands := cbuf[:0]
	var nbuf [releaseBufCap]bool
	named := nbuf[:] // named[i]: a parked claim wants freed[i]
	if len(freed) > len(nbuf) {
		named = make([]bool, len(freed))
	}
	for _, w := range t.claimQ {
		hit := false
		for _, r := range w.reqs {
			if j, ok := slices.BinarySearch(freed, r.Granule); ok {
				named[j], hit = true, true
			}
		}
		if hit {
			cands = append(cands, w)
		}
	}
	// Garbage-collect empty granule entries so long-running tables do
	// not accumulate one record per granule ever touched — and promote
	// the collected granules nobody is parked on back to fast-path
	// eligibility.
	for j, g := range freed {
		t.promoteLocked(g, named[j])
	}
	for _, w := range cands {
		if t.tryResolveClaimLocked(w) {
			resolved = append(resolved, w)
		}
	}
	t.mu.Unlock()
	return resolved
}

// wakeStepWaiters settles g's queue of incremental waiters after
// anything that can unblock one — a release, a waiter leaving the queue
// without one (cancelled, wounded, or aborted as a cycle victim or by
// wait-die), an upgrade that re-points edges: it grants from the head in
// FIFO order while compatible, then refreshes the waits-for edges of
// those still parked and aborts any whose refreshed edges close a cycle
// (or judges them by age again, under AcquireAged). An abort can expose
// a grantable head, and a grant changes the blockers of the rest, so the
// two steps repeat until a refresh aborts nobody: a waiter left parked
// always has an edge to what blocks it. A wound dealt on the way takes a
// request out of its queue, which is then settled the same way, until
// t.unsettled is empty. Caller holds t.mu.
func (t *Table) wakeStepWaiters(g Granule) {
	for {
		t.settleQueueLocked(g)
		n := len(t.unsettled)
		if n == 0 {
			return
		}
		g = t.unsettled[n-1]
		t.unsettled = t.unsettled[:n-1]
	}
}

// settleQueueLocked is wakeStepWaiters for g's queue alone. Caller holds
// t.mu.
func (t *Table) settleQueueLocked(g Granule) {
	gs := t.granules[g]
	if gs == nil || len(gs.waiters) == 0 {
		return
	}
	var woken []*stepWaiter
	for unsettled := true; unsettled; {
		n := len(woken)
		for len(gs.waiters) > 0 {
			w := gs.waiters[0]
			if !compatibleWithOthers(gs, w.txn, w.mode) {
				break
			}
			gs.waiters[0] = nil // do not keep the woken waiter reachable
			gs.waiters = gs.waiters[1:]
			t.grantStep(gs, w.txn, g, w.mode)
			t.stats.Grants++
			woken = append(woken, w)
		}
		// Detector bookkeeping in one batch: woken waiters stop waiting,
		// and the blockers of those still parked changed.
		for _, w := range woken[n:] {
			t.det.RemoveWaiter(w.txn)
		}
		unsettled = t.syncWaiterEdgesLocked(gs)
		t.mirrorEdges()
	}
	for _, w := range woken {
		t.omGrant()
		w.ch <- nil
	}
}

// tryResolveClaimLocked attempts to resolve one parked claim: grant it,
// or fail it as a duplicate of a same-txn grant. It reports whether it
// did; the outcome is left in w.err for the caller to deliver once the
// latch is dropped. Caller holds t.mu.
func (t *Table) tryResolveClaimLocked(w *ParkedClaim) bool {
	// Claim granules are demoted when the claim parks and promotion
	// skips claim-referenced granules, so they should still be slow;
	// the demote is a cheap invariant guard against a fast grant racing
	// in between this claim's park and its resolution.
	t.demoteAllLocked(w.reqs)
	h := &t.holds
	h.mu.Lock()
	if h.held[w.txn].size() != 0 {
		h.mu.Unlock()
		// The txn already holds locks, so this parked claim is a
		// duplicate: a retried claim (new session) racing its
		// predecessor's withdrawal. grantable ignores self-conflicts,
		// so granting it too would double-book the txn and let the
		// predecessor's teardown strip locks the duplicate believes
		// it holds. Fail it exactly as AcquireAll's entry check
		// would have; the lock service's orphan-retry loop handles
		// ErrAlreadyHolds.
		t.removeClaimLocked(w)
		w.parked, w.err = false, errAlreadyHolds(w.txn)
		for _, r := range w.reqs {
			t.promoteLocked(r.Granule, false)
		}
		return true
	}
	if !t.grantable(w.txn, w.reqs) {
		h.mu.Unlock()
		return false
	}
	t.grantAll(w.txn, w.reqs)
	h.mu.Unlock()
	t.removeClaimLocked(w)
	w.parked, w.err = false, nil
	t.stats.Grants++
	t.omGrant()
	return true
}
