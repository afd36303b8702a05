package cc

import (
	"context"

	"granulock/internal/lockmgr"
)

// hierarchical runs Gray's multigranularity protocol over the lock
// table: a database→granule hierarchy, intention modes on the root and
// best-effort lock escalation — the "block level and file level" regime
// the paper's conclusions recommend. Acquisition is claim-as-needed with
// deadlock detection and victim restart.
type hierarchical struct{}

func (hierarchical) Name() string { return "hierarchical" }

func (hierarchical) New(cfg Config) (Instance, error) {
	var hopts []lockmgr.HierOption
	if cfg.EscalationThreshold > 0 {
		hopts = append(hopts, lockmgr.WithEscalation(cfg.EscalationThreshold))
	}
	f := newFlatLocking(cfg)
	return &hierInstance{flatLocking: f, hier: lockmgr.NewHierTable(f.table, hopts...)}, nil
}

type hierInstance struct {
	flatLocking
	hier *lockmgr.HierTable
}

// hierRoot is the database node, above every granule: granules are
// numbered from zero.
const hierRoot lockmgr.Granule = -1

func (i *hierInstance) Acquire(ctx context.Context, tx *Tx, reqs []lockmgr.Request) error {
	path := [2]lockmgr.Granule{hierRoot}
	for _, r := range reqs {
		path[1] = r.Granule
		if err := i.hier.Lock(ctx, tx.ID, path[:], r.Mode); err != nil {
			return err
		}
	}
	return nil
}

func (i *hierInstance) End(tx *Tx) { i.hier.ReleaseAll(tx.ID) }

func (i *hierInstance) Stats() Stats {
	return Stats{Lock: i.table.Stats(), Escalations: i.hier.Escalations()}
}

func init() { Register(hierarchical{}) }
