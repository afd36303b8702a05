package lockmgr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests named TestFastPath* keep the names they had when the table
// had a lock-free fast path beside its latched records. They now pin the
// same behaviour on the one record a granule has: an uncontended cycle
// counts one grant and leaves nothing held, a conflict parks and is
// granted by the release, readers share, and the first-acquisition rule
// holds.

func TestFastPathUncontendedClaimCycle(t *testing.T) {
	tab := NewTable()
	g := Granule(7)
	mustAcquireAll(t, tab, 1<<40, reqs(ModeExclusive, g))
	tab.ReleaseAll(1 << 40)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g))
	if !tab.HoldsAtLeast(1, g, ModeExclusive) {
		t.Fatal("grant not visible in hold set")
	}
	if n := tab.LockedGranules(); n != 1 {
		t.Fatalf("LockedGranules = %d with one held granule", n)
	}
	tab.ReleaseAll(1)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := tab.LockedGranules(); n != 0 {
		t.Fatalf("%d locked granules leaked", n)
	}
	if n := tab.granuleRecords(); n != 1 {
		t.Fatalf("%d granule records, want g's one, kept resident", n)
	}
	if got := tab.Stats().Grants; got != 2 {
		t.Fatalf("Stats().Grants = %d, want 2", got)
	}
}

func TestFastPathIncrementalStepAndUpgrade(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(3)
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	if s := tab.Stats(); s.Grants != 1 {
		t.Fatalf("uncontended step should be one grant, got %+v", s)
	}
	// Re-acquire at the same strength: no new grant.
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	if s := tab.Stats(); s.Grants != 1 {
		t.Fatalf("re-acquire should not grant again, got %+v", s)
	}
	// Sole-holder upgrade S→X is granted at once.
	if err := tab.Acquire(ctx, 1, g, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if s := tab.Stats(); s.Grants != 2 || s.Blocks != 0 {
		t.Fatalf("sole-holder upgrade should be an immediate grant, got %+v", s)
	}
	if !tab.HoldsAtLeast(1, g, ModeExclusive) {
		t.Fatal("upgrade not recorded")
	}
	tab.ReleaseAll(1)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

func TestFastPathConflictFallsBackAndParks(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(9)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g))
	ch := make(chan error, 1)
	go func() { ch <- tab.Acquire(ctx, 2, g, ModeShared) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if s := tab.Stats(); s.Blocks != 1 {
		t.Fatalf("conflicting request should have parked, got %+v", s)
	}
	tab.ReleaseAll(1)
	if err := <-ch; err != nil {
		t.Fatalf("waiter should be granted after release: %v", err)
	}
	tab.ReleaseAll(2)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

func TestFastPathSharedReadersFallBackToMap(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(5)
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	// A second reader joins the first in the granule's holder vector.
	if err := tab.Acquire(ctx, 2, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	if !tab.HoldsAtLeast(1, g, ModeShared) || !tab.HoldsAtLeast(2, g, ModeShared) {
		t.Fatal("both readers should hold g")
	}
	tab.ReleaseAll(1)
	tab.ReleaseAll(2)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

func TestFastPathFirstAcquisitionRule(t *testing.T) {
	tab := NewTable()
	g, g2 := Granule(1), Granule(2)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g))
	if err := tab.AcquireAll(context.Background(), 1, reqs(ModeShared, g2)); !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("second claim by a holder: got %v, want ErrAlreadyHolds", err)
	}
	if ok, err := tab.TryAcquireAll(1, reqs(ModeShared, g2)); ok || !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("TryAcquireAll second claim: got (%v, %v)", ok, err)
	}
	if ok, err := tab.TryAcquireAll(1, reqs(ModeShared, g)); ok || !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("TryAcquireAll of a granule already held: got (%v, %v)", ok, err)
	}
	tab.ReleaseAll(1)
}

func TestFastPathTryAcquireAllBlockedFast(t *testing.T) {
	tab := NewTable()
	g := Granule(4)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g))
	ok, err := tab.TryAcquireAll(2, reqs(ModeExclusive, g))
	if ok || err != nil {
		t.Fatalf("TryAcquireAll against a holder: got (%v, %v)", ok, err)
	}
	if tab.HeldBy(2) != 0 {
		t.Fatal("failed try must record nothing")
	}
	tab.ReleaseAll(1)
}

// TestFastPathParkedClaimNotBypassed: while a multi-granule claim is
// parked on a granule, a third transaction's claim and release of the
// claim's other granule must not strand it — the release that frees
// its blocker still grants it.
func TestFastPathParkedClaimNotBypassed(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g1, g2 := Granule(11), Granule(12)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g1))
	ch := make(chan error, 1)
	go func() { ch <- tab.AcquireAll(ctx, 2, reqs(ModeExclusive, g1, g2)) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	// A claim of g2 alone overtakes the parked claim (it holds nothing
	// while parked)...
	mustAcquireAll(t, tab, 3, reqs(ModeExclusive, g2))
	tab.ReleaseAll(3)
	// ...and releasing g1 must grant the parked claim even though txn 3
	// touched g2 in between.
	tab.ReleaseAll(1)
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("parked claim failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim stranded")
	}
	tab.ReleaseAll(2)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

// TestFastPathIndexGrows cycles thousands of granules twice: the first
// round gives each a record, which stays resident, so the second finds
// every record and adds none, and every cycle is an immediate grant.
// The name is historical: the granules once had to fill a growing
// lock-free index before their cycles went fast.
func TestFastPathIndexGrows(t *testing.T) {
	tab := NewTable()
	const n = 4096
	txn := TxnID(1)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			mustAcquireAll(t, tab, txn, reqs(ModeExclusive, Granule(i)))
			tab.ReleaseAll(txn)
			txn++
		}
		if got := tab.granuleRecords(); got != n {
			t.Fatalf("round %d: %d granule records, want %d", round, got, n)
		}
	}
	if got := tab.HoldersCount(); got != 0 {
		t.Fatalf("%d holders leaked", got)
	}
	if s := tab.Stats(); s.Grants != 2*n || s.Blocks != 0 {
		t.Fatalf("want %d immediate grants, got %+v", 2*n, s)
	}
}

// TestFastPathUnpackableTxnUsesSlowPath: every TxnID locks alike — zero,
// negative ids and ids past 48 bits claim, conflict and release like any
// other. The name is historical: such ids once could not be packed into
// the lock-free path's word and were served by the latch alone.
func TestFastPathUnpackableTxnUsesSlowPath(t *testing.T) {
	tab := NewTable()
	g := Granule(13)
	for _, txn := range []TxnID{0, -1, 1<<48 + 7, -1 << 62} {
		mustAcquireAll(t, tab, txn, reqs(ModeExclusive, g))
		if !tab.HoldsAtLeast(txn, g, ModeExclusive) {
			t.Fatalf("txn %d: grant missing", txn)
		}
		if ok, err := tab.TryAcquireAll(txn+1, reqs(ModeShared, g)); ok || err != nil {
			t.Fatalf("txn %d holds X, yet a reader got (%v, %v)", txn, ok, err)
		}
		tab.ReleaseAll(txn)
	}
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

// TestTryAcquireAllNoPartialStateOnFailure pins that a failed
// conservative probe records nothing: no hold-set entries and no granule
// records beyond those that already existed.
func TestTryAcquireAllNoPartialStateOnFailure(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 30))
	ok, err := tab.TryAcquireAll(2, []Request{
		{Granule: 10, Mode: ModeShared},
		{Granule: 20, Mode: ModeExclusive},
		{Granule: 30, Mode: ModeShared}, // blocked by txn 1's X
	})
	if ok || err != nil {
		t.Fatalf("TryAcquireAll = (%v, %v), want (false, nil)", ok, err)
	}
	if n := tab.HeldBy(2); n != 0 {
		t.Fatalf("failed probe left %d hold-set entries", n)
	}
	if n := tab.granuleRecords(); n != 1 {
		t.Fatalf("failed probe left %d granule records, want only txn 1's", n)
	}
	if n := tab.LockedGranules(); n != 1 {
		t.Fatalf("LockedGranules = %d, want 1", n)
	}
	tab.ReleaseAll(1)
	if n := tab.LockedGranules(); n != 0 {
		t.Fatalf("%d locked granules leaked", n)
	}
}

// TestTryAcquireAllRace hammers TryAcquireAll from many goroutines over
// overlapping granule sets (run under -race in CI): failed probes must
// leave zero recorded state and the table must drain to empty.
func TestTryAcquireAllRace(t *testing.T) {
	tab := NewTable()
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(w*iters + i + 1)
				rs := []Request{
					{Granule: Granule(i % 7), Mode: ModeExclusive},
					{Granule: Granule((i + w) % 7), Mode: ModeShared},
				}
				ok, err := tab.TryAcquireAll(txn, rs)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !ok {
					if n := tab.HeldBy(txn); n != 0 {
						t.Errorf("worker %d: failed probe left %d holds", w, n)
						return
					}
					continue
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := tab.LockedGranules(); n != 0 {
		t.Fatalf("%d locked granules leaked", n)
	}
}

// TestFastPathConcurrentStress mixes single-granule claims, incremental
// steps and releases over a small granule set, checking mutual exclusion
// the same way the conservative stress test does.
func TestFastPathConcurrentStress(t *testing.T) {
	tab := NewTable()
	const workers = 8
	const iters = 200
	const granules = 6
	var inCritical [granules]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				txn := TxnID(w*iters + i + 1)
				g := Granule((i + w) % granules)
				var err error
				if i%2 == 0 {
					err = tab.AcquireAll(ctx, txn, reqs(ModeExclusive, g))
				} else {
					err = tab.Acquire(ctx, txn, g, ModeExclusive)
				}
				if err != nil {
					if errors.Is(err, ErrDeadlock) {
						tab.ReleaseAll(txn)
						continue
					}
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if inCritical[g].Add(1) != 1 {
					t.Errorf("mutual exclusion violated on granule %d", g)
				}
				inCritical[g].Add(-1)
				tab.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := tab.LockedGranules(); n != 0 {
		t.Fatalf("%d locked granules leaked", n)
	}
	if s := tab.Stats(); s.Grants != workers*iters {
		t.Fatalf("%d grants, want one per transaction (%d)", s.Grants, workers*iters)
	}
}
