package lockmgr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// IntentionFor returns the intention mode ancestors must carry so that a
// descendant may be locked in mode m: IS for read modes, IX for modes
// that can write.
func IntentionFor(m Mode) Mode {
	switch m {
	case ModeIS, ModeShared:
		return ModeIS
	default:
		return ModeIX
	}
}

// absorbs reports whether holding `held` on an ancestor makes a request
// for `want` on a descendant redundant: X covers everything, S and SIX
// cover reads.
func absorbs(held, want Mode) bool {
	switch held {
	case ModeExclusive:
		return true
	case ModeShared, ModeSIX:
		return want == ModeShared || want == ModeIS
	default:
		return false
	}
}

// HierTable is multi-granularity locking (Gray's hierarchical protocol)
// as a policy over a Table — the mechanism the paper's conclusions point
// at: "providing granularity at the block level and at the file level,
// as is done in the Gamma database machine, may be adequate". It grants,
// parks and wakes nothing itself: a node of the hierarchy is a granule
// of the table, and locking a node is acquiring the path to it from the
// root, intention modes on the ancestors and the requested mode on the
// target. Waiting, FIFO order and deadlock detection are Table.Acquire's,
// so the victim of a deadlock receives ErrDeadlock and should ReleaseAll
// and retry. All that is kept here is what lock escalation counts.
//
// The table may be shared with flat users as long as their granules and
// the hierarchy's node ids are distinct. One transaction's calls must
// not overlap, which is how the engine's hierarchical protocol runs
// them.
type HierTable struct {
	t        *Table
	escAt    int // escalation threshold; 0 = off
	escCount atomic.Int64
	// kids holds, per transaction that has locked below the root, its
	// childSets. Each is read and written by its own transaction only.
	kids sync.Map
}

// childSets is one transaction's escalation trigger: per parent node,
// the children locked under it since the parent was last escalated.
type childSets map[Granule]map[Granule]struct{}

// HierOption configures a HierTable.
type HierOption func(*HierTable)

// WithEscalation enables lock escalation: when a transaction holds
// threshold or more distinct child locks under one parent, the table
// opportunistically converts them to a single coarse lock on the parent
// (S under IS, X under IX/SIX). Escalation is best-effort — it is
// skipped, never waited for, when other holders make the coarse lock
// incompatible — so it cannot introduce deadlocks. Once escalated,
// further descendant requests under that parent are absorbed without
// taking new locks: exactly the granularity adaptation the paper's
// conclusions recommend ("providing granularity at the block level and
// at the file level ... may be adequate").
func WithEscalation(threshold int) HierOption {
	return func(h *HierTable) { h.escAt = threshold }
}

// NewHierTable returns a hierarchical locking policy over t.
func NewHierTable(t *Table, opts ...HierOption) *HierTable {
	h := &HierTable{t: t}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Escalations returns the number of successful lock escalations.
func (h *HierTable) Escalations() int64 { return h.escCount.Load() }

// Lock acquires mode on the last node of path, taking the appropriate
// intention mode on every ancestor first (top-down, the hierarchical
// protocol's required order). A coarse lock txn already holds on an
// ancestor, directly or by escalation, absorbs the rest of the path. On
// deadlock the requester is the victim and receives ErrDeadlock with its
// already-acquired locks still held; the caller should ReleaseAll.
func (h *HierTable) Lock(ctx context.Context, txn TxnID, path []Granule, mode Mode) error {
	if len(path) == 0 {
		return errors.New("lockmgr: empty lock path")
	}
	for i, node := range path {
		want := mode
		if i < len(path)-1 {
			want = IntentionFor(mode)
		}
		held, ok := h.t.heldMode(txn, node)
		if ok && absorbs(held, mode) {
			return nil
		}
		if !ok || !covers(held, want) {
			if err := h.t.Acquire(ctx, txn, node, want); err != nil {
				return err
			}
		}
		if i > 0 && h.escAt > 0 {
			h.noteChild(txn, path[i-1], node)
		}
	}
	return nil
}

// noteChild records that txn holds a lock on child under parent and, at
// the threshold, tries to escalate: the parent's intention mode says
// what the children may do — IX or SIX means writes, so the coarse lock
// must be X; IS means reads, so S suffices.
func (h *HierTable) noteChild(txn TxnID, parent, child Granule) {
	v, ok := h.kids.Load(txn)
	if !ok {
		v = childSets{}
		h.kids.Store(txn, v)
	}
	sets := v.(childSets)
	set := sets[parent]
	if set == nil {
		set = make(map[Granule]struct{}, h.escAt)
		sets[parent] = set
	}
	set[child] = struct{}{}
	if len(set) < h.escAt {
		return
	}
	target := ModeShared
	switch held, _ := h.t.heldMode(txn, parent); held {
	case ModeExclusive:
		return // already escalated
	case ModeIX, ModeSIX:
		target = ModeExclusive
	}
	if !h.t.TryUpgrade(txn, parent, target) {
		return // best-effort: skip rather than wait
	}
	h.escCount.Add(1)
	delete(sets, parent)
}

// ReleaseAll releases every node held by txn.
func (h *HierTable) ReleaseAll(txn TxnID) {
	if h.escAt > 0 {
		h.kids.Delete(txn)
	}
	h.t.ReleaseAll(txn)
}
