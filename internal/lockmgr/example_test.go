package lockmgr_test

import (
	"context"
	"fmt"

	"granulock/internal/lockmgr"
)

// ExampleTable_AcquireAll demonstrates conservative preclaiming: all or
// nothing, so deadlock is impossible.
func ExampleTable_AcquireAll() {
	tab := lockmgr.NewTable()
	ctx := context.Background()
	_ = tab.AcquireAll(ctx, 1, []lockmgr.Request{
		{Granule: 10, Mode: lockmgr.ModeExclusive},
		{Granule: 11, Mode: lockmgr.ModeShared},
	})
	fmt.Println("txn 1 holds", tab.HeldBy(1), "granules")
	tab.ReleaseAll(1)
	fmt.Println("after release:", tab.HeldBy(1))
	// Output:
	// txn 1 holds 2 granules
	// after release: 0
}

// ExampleHierTable shows multigranularity locking over the one lock
// table: nodes of the hierarchy are granules, and two writers on
// different granules of the same relation coexist because each holds the
// relation, and the database above it, in an intention mode only.
func ExampleHierTable() {
	const db, rel, g1, g2 lockmgr.Granule = 0, 1, 2, 3
	tab := lockmgr.NewTable()
	h := lockmgr.NewHierTable(tab)
	ctx := context.Background()
	_ = h.Lock(ctx, 1, []lockmgr.Granule{db, rel, g1}, lockmgr.ModeExclusive)
	_ = h.Lock(ctx, 2, []lockmgr.Granule{db, rel, g2}, lockmgr.ModeExclusive)
	fmt.Println("both hold the relation in IX:",
		tab.HoldsAtLeast(1, rel, lockmgr.ModeIX), tab.HoldsAtLeast(2, rel, lockmgr.ModeIX))
	fmt.Println("either holds it in X:",
		tab.HoldsAtLeast(1, rel, lockmgr.ModeExclusive) || tab.HoldsAtLeast(2, rel, lockmgr.ModeExclusive))
	scan, _ := tab.TryAcquireAll(3, []lockmgr.Request{{Granule: rel, Mode: lockmgr.ModeShared}})
	fmt.Println("a scan of the relation is granted now:", scan)
	// Output:
	// both hold the relation in IX: true true
	// either holds it in X: false
	// a scan of the relation is granted now: false
}

// ExampleGCompatible prints a corner of Gray's compatibility matrix,
// the one every grant decision of the table reads.
func ExampleGCompatible() {
	fmt.Println("IS vs IX:", lockmgr.GCompatible(lockmgr.ModeIS, lockmgr.ModeIX))
	fmt.Println("S  vs IX:", lockmgr.GCompatible(lockmgr.ModeShared, lockmgr.ModeIX))
	fmt.Println("X  vs IS:", lockmgr.GCompatible(lockmgr.ModeExclusive, lockmgr.ModeIS))
	// Output:
	// IS vs IX: true
	// S  vs IX: false
	// X  vs IS: false
}
