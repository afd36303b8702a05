package cc

import (
	"context"
	"sync/atomic"

	"granulock/internal/lockmgr"
)

// wound-wait and wait-die, the age-priority restart policies of
// Rosenkrantz, Stearns and Lewis that Thomasian's line of work (PAPERS.md)
// recommends for high data contention: every conflict is resolved at
// once by age (Tx.Priority, smaller is older, kept across restarts so a
// loser ages into invincibility), so wait edges cannot form a cycle and
// no detector runs. The verdict is the lock table's (Table.AcquireAged);
// the instance locks under TxnID(Priority), unique among live
// transactions because End releases everything before a retry. A wound
// stops its victim only during acquisition, before any write: a victim
// past its last acquire commits (commit immunity), so no wound needs an
// undo.
type prioProtocol struct {
	name  string
	wound bool
}

func (p prioProtocol) Name() string { return p.name }

func (p prioProtocol) New(cfg Config) (Instance, error) {
	return &prioInstance{flatLocking: newFlatLocking(cfg), wound: p.wound}, nil
}

type prioInstance struct {
	flatLocking
	wound bool // true: wound-wait; false: wait-die

	wounds atomic.Int64
	dies   atomic.Int64
}

func (i *prioInstance) Acquire(ctx context.Context, tx *Tx, reqs []lockmgr.Request) error {
	id := lockmgr.TxnID(tx.Priority)
	for _, r := range reqs {
		switch err := i.table.AcquireAged(ctx, id, r.Granule, r.Mode, i.wound); err {
		case nil:
		case lockmgr.ErrWounded:
			i.wounds.Add(1)
			return ErrWounded
		case lockmgr.ErrDie:
			i.dies.Add(1)
			return ErrDie
		default:
			return err // caller cancellation
		}
	}
	return nil
}

// End releases under the identity Acquire locked under.
func (i *prioInstance) End(tx *Tx) { i.table.ReleaseAll(lockmgr.TxnID(tx.Priority)) }

func (i *prioInstance) Stats() Stats {
	return Stats{
		Lock:   i.table.Stats(),
		Wounds: i.wounds.Load(),
		Dies:   i.dies.Load(),
	}
}

func init() {
	Register(prioProtocol{name: "wound-wait", wound: true})
	Register(prioProtocol{name: "wait-die", wound: false})
}
