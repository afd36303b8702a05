package cc

import (
	"context"

	"granulock/internal/lockmgr"
)

// directAccess is the storage half shared by every pessimistic
// protocol: with all locks held before the first access, reads and
// writes go straight to the store and the transaction's own writes are
// visible because they are applied in place.
type directAccess struct {
	store  Store
	record bool
}

func (d directAccess) Read(_ *Tx, e int) int64 { return d.store.Get(e) }

func (d directAccess) Write(tx *Tx, e int, delta int64) {
	before, after := d.store.Apply(e, delta)
	if d.record {
		tx.Updates = append(tx.Updates, Update{Entity: e, Before: before, After: after})
	}
}

// commitApplied is the Commit of every protocol whose writes are
// already in place: publishing is just making them durable.
func commitApplied(tx *Tx, persist func([]Update) error) error {
	if persist != nil {
		return persist(tx.Updates)
	}
	return nil
}

// flatLocking is the chassis shared by the locking protocols
// (conservative, claim-as-needed, hierarchical, wound-wait, wait-die):
// one lockmgr.Table plus direct storage access.
type flatLocking struct {
	directAccess
	table *lockmgr.Table
}

func newFlatLocking(cfg Config) flatLocking {
	var topts []lockmgr.Option
	if cfg.Metrics != nil {
		topts = append(topts, lockmgr.WithMetrics(cfg.Metrics))
	}
	return flatLocking{
		directAccess: directAccess{store: cfg.Store, record: cfg.RecordUpdates},
		table:        lockmgr.NewTable(topts...),
	}
}

func (f flatLocking) Begin(ctx context.Context, _ *Tx) context.Context { return ctx }

func (f flatLocking) Commit(_ context.Context, tx *Tx, persist func([]Update) error) error {
	return commitApplied(tx, persist)
}

func (f flatLocking) End(tx *Tx) { f.table.ReleaseAll(tx.ID) }

func (f flatLocking) Stats() Stats { return Stats{Lock: f.table.Stats()} }

// conservative preclaims every granule before touching data; a
// transaction holds nothing while it waits, so deadlock is impossible
// (the paper's protocol).
type conservative struct{}

func (conservative) Name() string { return "conservative" }

func (conservative) New(cfg Config) (Instance, error) {
	return &conservativeInstance{flatLocking: newFlatLocking(cfg)}, nil
}

type conservativeInstance struct{ flatLocking }

func (i *conservativeInstance) Acquire(ctx context.Context, tx *Tx, reqs []lockmgr.Request) error {
	return i.table.AcquireAll(ctx, tx.ID, reqs)
}

// claimAsNeeded acquires each granule on first touch; deadlocks are
// detected and the victim restarts (the strategy of the paper's
// footnote 1).
type claimAsNeeded struct{}

func (claimAsNeeded) Name() string { return "claim-as-needed" }

func (claimAsNeeded) New(cfg Config) (Instance, error) {
	return &claimInstance{flatLocking: newFlatLocking(cfg)}, nil
}

type claimInstance struct{ flatLocking }

func (i *claimInstance) Acquire(ctx context.Context, tx *Tx, reqs []lockmgr.Request) error {
	for _, r := range reqs {
		if err := i.table.Acquire(ctx, tx.ID, r.Granule, r.Mode); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	Register(conservative{})
	Register(claimAsNeeded{})
}
