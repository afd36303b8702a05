// Package cc is the pluggable concurrency-control surface of the
// executable engine. A Protocol is a named factory; its Instance binds
// one database to one concurrency-control discipline — which lock
// tables (if any) it drives, when transactions block, and when they
// restart. The engine executes every transaction through the same five
// hooks (Begin, Acquire, Read/Write, Commit, End), so adding a protocol
// means implementing this interface and calling Register from an init
// function; every workload, figure sweep, and benchmark then runs under
// it by name.
//
// The contract splits conflict handling into two mutually exclusive
// places. Pessimistic protocols surface conflicts in Acquire, before
// any data access: Acquire either returns nil (all access rights held
// for the whole transaction — strict two-phase) or an error. Optimistic
// protocols surface conflicts in Commit. Between a successful Acquire
// and Commit, Read and Write are infallible: pessimistic instances
// touch storage directly under their held locks, optimistic instances
// buffer privately. A protocol therefore never has to undo a storage
// write — aborts happen strictly before the instance's first Apply.
//
// Restart demands use one taxonomy: any error with
// errors.Is(err, ErrRestart) (or lockmgr.ErrDeadlock, the detector's
// verdict) tells the engine to call End, back off, and re-run the
// transaction as a fresh attempt (a new ID) with its original Priority.
// Anything else is terminal for the Execute call.
package cc

import (
	"context"
	"errors"
	"sort"

	"granulock/internal/lockmgr"
	"granulock/internal/obs"
)

// Store is the storage surface protocols read and write through. Both
// methods are latched per entity (individually atomic); multi-entity
// isolation is the protocol's job.
type Store interface {
	// Get returns entity e's committed value.
	Get(e int) int64
	// Apply adds delta to entity e, returning the before/after images.
	Apply(e int, delta int64) (before, after int64)
	// GranuleOf maps an entity to its lock granule.
	GranuleOf(e int) lockmgr.Granule
}

// Update is one committed entity mutation, in application order — the
// engine turns these into write-ahead-log records.
type Update struct {
	Entity        int
	Before, After int64
}

// Tx is one transaction attempt as the protocol hooks see it. The
// engine allocates a fresh Tx (and lock-table identity) per attempt;
// Priority is the identity of the attempt's first incarnation and is
// preserved across restarts, so age-based policies (wound-wait,
// wait-die) cannot starve a transaction that keeps losing.
type Tx struct {
	// ID is this attempt's identity, fresh per attempt: the locking
	// protocols lock under it, except wound-wait and wait-die, which
	// lock under Priority so that a transaction's age is its identity
	// in the lock table.
	ID lockmgr.TxnID
	// Priority orders transactions by age: smaller is older. It equals
	// the ID of the transaction's first attempt.
	Priority int64
	// Attempt counts restarts (0 on the first attempt).
	Attempt int
	// Updates accumulates the attempt's committed mutations when the
	// instance was built with RecordUpdates (WAL attached).
	Updates []Update

	// priv is the instance's per-attempt state, set by Begin.
	priv any
}

// Config is what a Protocol builds an Instance from.
type Config struct {
	// Store is the database the instance executes against.
	Store Store
	// EscalationThreshold enables hierarchical lock escalation (0
	// disables; ignored by protocols without a lock hierarchy).
	EscalationThreshold int
	// Metrics, when non-nil, is forwarded to the instance's lock table
	// so its granulock_lockmgr_ families mirror the engine's locking
	// activity. One database per registry.
	Metrics *obs.Registry
	// RecordUpdates makes Write/Commit collect Update images on the Tx
	// (set when a write-ahead log is attached; off otherwise so the
	// no-WAL hot path stays allocation-free).
	RecordUpdates bool
}

// Instance is one protocol bound to one database. Implementations must
// be safe for concurrent use by many transactions.
type Instance interface {
	// Begin registers per-attempt state on tx and returns the context
	// the attempt's Acquire waits must run under. Every built-in
	// protocol returns ctx unchanged; the age policies interrupt a
	// wounded attempt's lock waits inside the lock table instead.
	Begin(ctx context.Context, tx *Tx) context.Context
	// Acquire claims access rights for the transaction's declared lock
	// set (deduplicated, exclusive-wins, in first-touch order) before
	// any data access. Pessimistic protocols block or restart here;
	// optimistic protocols return nil immediately. A restart demand
	// satisfies errors.Is(err, ErrRestart) or is lockmgr.ErrDeadlock.
	// reqs belongs to the caller, who reuses it once End has returned.
	Acquire(ctx context.Context, tx *Tx, reqs []lockmgr.Request) error
	// Read returns entity e's value as seen by tx, the transaction's
	// own earlier writes included. Infallible after a nil Acquire.
	Read(tx *Tx, e int) int64
	// Write adds delta to entity e on behalf of tx. Infallible after a
	// nil Acquire.
	Write(tx *Tx, e int, delta int64)
	// Commit publishes the transaction. persist, when non-nil, is
	// invoked exactly once with the final update images at the publish
	// point — after the writes are applied and before any access right
	// is released — so log order matches serialization order. A
	// validation failure returns an ErrRestart-wrapped error before
	// anything is applied or persisted.
	//
	// persist may block: under the engine's group-commit pipeline it
	// enqueues the transaction's record group and waits for the batched
	// flush to make it durable, so Commit's latency includes one flush
	// of the write-ahead log. Protocols must tolerate persist taking
	// milliseconds while rights (or a validation section) are held, and
	// must treat a persist error as a terminal commit failure: the
	// transaction must not be acknowledged, and the error is returned
	// as-is (it is typically a poisoned-log error, not a restart).
	Commit(ctx context.Context, tx *Tx, persist func([]Update) error) error
	// End releases every right tx holds and forgets the attempt. Called
	// exactly once per Begin — after a successful Commit, before a
	// restart, or on terminal failure.
	End(tx *Tx)
	// Stats snapshots the instance's activity.
	Stats() Stats
}

// Stats counts instance activity. Lock mirrors the instance's lock
// table (zero for lockless protocols); the restart counters attribute
// protocol-initiated aborts to their cause. Every restart an instance
// raises is counted here once, as Lock.Deadlocks (the detector's
// victims) or one of Wounds, Dies and ValidationFails: the engine's
// restart count is their sum and keeps no tally of its own.
type Stats struct {
	Lock        lockmgr.Stats
	Escalations int64
	// Wounds counts wound-wait victims restarted by an older
	// transaction.
	Wounds int64
	// Dies counts wait-die requesters that died against an older holder.
	Dies int64
	// ValidationFails counts optimistic transactions aborted by
	// backward validation at commit.
	ValidationFails int64
}

// ErrRestart is the sentinel every protocol-initiated restart demand
// wraps: errors.Is(err, ErrRestart) tells the engine to abort the
// attempt, back off, and retry with the same Priority.
var ErrRestart = errors.New("cc: transaction must restart")

// RestartError is a restart demand with its protocol-specific cause.
// It satisfies errors.Is(err, ErrRestart).
type RestartError struct {
	// Kind is a short machine-readable cause ("wounded", "die",
	// "validation"), the engine's restarts_total label for it.
	Kind string
	// Detail is the human-readable explanation.
	Detail string
}

func (e *RestartError) Error() string { return "cc: restart (" + e.Kind + "): " + e.Detail }

// Is reports that every RestartError is an ErrRestart.
func (e *RestartError) Is(target error) bool { return target == ErrRestart }

// The built-in restart causes.
var (
	// ErrWounded restarts a wound-wait transaction aborted by an older
	// transaction that wanted one of its locks.
	ErrWounded = &RestartError{Kind: "wounded", Detail: "wounded by an older transaction wanting a held lock"}
	// ErrDie restarts a wait-die requester that conflicted with an
	// older holder.
	ErrDie = &RestartError{Kind: "die", Detail: "wait-die: requested a lock held by an older transaction"}
	// ErrValidation restarts an optimistic transaction whose read set
	// overlapped a concurrently committed write set.
	ErrValidation = &RestartError{Kind: "validation", Detail: "backward validation failed: read set overlaps a committed write set"}
)

// Restartable reports whether err demands a restart rather than
// terminating the transaction.
func Restartable(err error) bool {
	return errors.Is(err, ErrRestart) || errors.Is(err, lockmgr.ErrDeadlock)
}

// Protocol is a named concurrency-control discipline: a factory for
// per-database instances.
type Protocol interface {
	// Name is the registry key: lowercase, stable, unique.
	Name() string
	// New builds an instance bound to one database.
	New(cfg Config) (Instance, error)
}

// The registry. Registration happens in init functions; lookups after
// init never race with writes, so no lock is needed.
var protocols = map[string]Protocol{}

// Register adds a protocol to the registry. It panics on a duplicate,
// empty, or non-lowercase name: registration is an init-time
// programming act, not a runtime input.
func Register(p Protocol) {
	name := p.Name()
	if name == "" || name != lower(name) {
		panic("cc: protocol name " + name + " must be non-empty lowercase")
	}
	if _, dup := protocols[name]; dup {
		panic("cc: duplicate protocol " + name)
	}
	protocols[name] = p
}

// lower maps ASCII upper case down; protocol names are ASCII.
func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Lookup resolves a protocol by name.
func Lookup(name string) (Protocol, bool) {
	p, ok := protocols[name]
	return p, ok
}

// Names returns every registered protocol name, sorted.
func Names() []string {
	out := make([]string, 0, len(protocols))
	for name := range protocols {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
