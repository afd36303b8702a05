package lockmgr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// warmFast makes g fast-eligible: the first claim/release cycle over a
// granule runs on the slow path, and the release-side garbage collection
// promotes the granule into the table's lock-free index.
func warmFast(t *testing.T, tab *Table, g Granule) {
	t.Helper()
	const warmTxn = TxnID(1 << 40) // far outside the ids tests use
	mustAcquireAll(t, tab, warmTxn, reqs(ModeExclusive, g))
	tab.ReleaseAll(warmTxn)
	if fs := tab.fastLookup(g); fs == nil || fs.word.Load() != 0 {
		t.Fatalf("granule %d not promoted to fast-path eligibility after warm-up", g)
	}
}

func TestFastPackRoundTrip(t *testing.T) {
	for _, txn := range []TxnID{1, 2, 1 << 20, fpTxnMask} {
		for _, mode := range []Mode{ModeShared, ModeExclusive} {
			w := fpPack(txn, mode)
			if !fpIsFast(w) {
				t.Fatalf("fpPack(%d,%v) not FAST", txn, mode)
			}
			if got := fpTxnOf(w); got != txn {
				t.Fatalf("fpTxnOf(fpPack(%d,%v)) = %d", txn, mode, got)
			}
			if got := fpModeOf(w); got != mode {
				t.Fatalf("fpModeOf(fpPack(%d,%v)) = %v", txn, mode, got)
			}
		}
	}
	for _, w := range []uint64{0, fpSlow} {
		if fpIsFast(w) {
			t.Fatalf("word %#x misread as FAST", w)
		}
	}
	for _, txn := range []TxnID{0, -1, fpTxnMask + 1} {
		if fpPackable(txn) {
			t.Fatalf("txn %d should not be packable", txn)
		}
	}
}

func TestFastPathUncontendedClaimCycle(t *testing.T) {
	tab := NewTable()
	g := Granule(7)
	warmFast(t, tab, g)
	if fp := tab.FastStats(); fp.Grants != 0 {
		t.Fatalf("warm-up cycle should be slow-path only, got %+v", fp)
	}
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g))
	if fp := tab.FastStats(); fp.Grants != 1 {
		t.Fatalf("second claim should be a fast grant, got %+v", fp)
	}
	if !tab.HoldsAtLeast(1, g, ModeExclusive) {
		t.Fatal("fast grant not visible in hold set")
	}
	if n := tab.LockedGranules(); n != 1 {
		t.Fatalf("LockedGranules = %d with one fast-held granule", n)
	}
	tab.ReleaseAll(1)
	if fp := tab.FastStats(); fp.Releases != 1 {
		t.Fatalf("release of a fast-held granule should be fast, got %+v", fp)
	}
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := tab.granuleRecords(); n != 0 {
		t.Fatalf("%d granule records leaked (fast holds must not create map entries)", n)
	}
	if got := tab.Stats().Grants; got != 2 {
		t.Fatalf("Stats().Grants = %d, want 2 (slow warm-up + fast grant folded in)", got)
	}
}

func TestFastPathIncrementalStepAndUpgrade(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(3)
	warmFast(t, tab, g)
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	if fp := tab.FastStats(); fp.Grants != 1 {
		t.Fatalf("uncontended step should be fast, got %+v", fp)
	}
	// Re-acquire at the same strength: no new grant either path.
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil {
		t.Fatal(err)
	}
	if fp := tab.FastStats(); fp.Grants != 1 {
		t.Fatalf("re-acquire should not grant again, got %+v", fp)
	}
	// Sole-holder upgrade S→X stays on the fast path.
	if err := tab.Acquire(ctx, 1, g, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if fp := tab.FastStats(); fp.Grants != 2 {
		t.Fatalf("sole-holder upgrade should be fast, got %+v", fp)
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
	warmFast(t, tab, g)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g)) // fast-held by txn 1
	ch := make(chan error, 1)
	go func() { ch <- tab.Acquire(ctx, 2, g, ModeShared) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if fp := tab.FastStats(); fp.Fallbacks == 0 {
		t.Fatalf("conflicting request should have fallen back, got %+v", fp)
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
	warmFast(t, tab, g)
	if err := tab.Acquire(ctx, 1, g, ModeShared); err != nil { // fast
		t.Fatal(err)
	}
	// A second reader cannot be encoded in the single-holder word: it
	// must demote the granule and join through the granule map.
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
	warmFast(t, tab, g)
	warmFast(t, tab, g2)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g)) // fast
	if err := tab.AcquireAll(context.Background(), 1, reqs(ModeShared, g2)); !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("second claim by a fast holder: got %v, want ErrAlreadyHolds", err)
	}
	if ok, err := tab.TryAcquireAll(1, reqs(ModeShared, g2)); ok || !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("TryAcquireAll second claim: got (%v, %v)", ok, err)
	}
	tab.ReleaseAll(1)
}

func TestFastPathTryAcquireAllBlockedFast(t *testing.T) {
	tab := NewTable()
	g := Granule(4)
	warmFast(t, tab, g)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g)) // fast-held
	ok, err := tab.TryAcquireAll(2, reqs(ModeExclusive, g))
	if ok || err != nil {
		t.Fatalf("TryAcquireAll against a fast holder: got (%v, %v)", ok, err)
	}
	if tab.HeldBy(2) != 0 {
		t.Fatal("failed try must record nothing")
	}
	tab.ReleaseAll(1)
}

// TestFastPathParkedClaimNotBypassed pins the promotion guard: while a
// multi-granule claim is parked on a granule, the granule must stay off
// the fast path, or a fast grant/release cycle would skip the
// claim-resolution sweep and strand the claim forever.
func TestFastPathParkedClaimNotBypassed(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g1, g2 := Granule(11), Granule(12)
	warmFast(t, tab, g1)
	warmFast(t, tab, g2)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g1)) // fast-held
	ch := make(chan error, 1)
	go func() { ch <- tab.AcquireAll(ctx, 2, reqs(ModeExclusive, g1, g2)) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	// The parked claim demoted g1 and must keep g2 slow too: a fast
	// claim/release of g2 by a third txn must not overtake it...
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
		t.Fatal("parked claim stranded: promotion guard violated")
	}
	tab.ReleaseAll(2)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

func TestFastPathDisabledByOption(t *testing.T) {
	tab := NewTable(WithFastPath(false))
	if tab.FastPathEnabled() {
		t.Fatal("WithFastPath(false) should disable the fast path")
	}
	g := Granule(6)
	for txn := TxnID(1); txn <= 5; txn++ {
		mustAcquireAll(t, tab, txn, reqs(ModeExclusive, g))
		tab.ReleaseAll(txn)
	}
	if fp := tab.FastStats(); fp != (FastPathStats{}) {
		t.Fatalf("disabled fast path saw traffic: %+v", fp)
	}
}

// TestFastPathRuntimeToggle flips the fast path off while fast-held
// locks exist: the slow path must lazily migrate them into the granule
// map and release them correctly.
func TestFastPathRuntimeToggle(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(8)
	warmFast(t, tab, g)
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g)) // fast-held
	tab.SetFastPath(false)
	// A conflicting slow-path request must still see the fast holder.
	ch := make(chan error, 1)
	go func() { ch <- tab.Acquire(ctx, 2, g, ModeExclusive) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	tab.ReleaseAll(1) // slow release of a fast-granted lock
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	tab.ReleaseAll(2)
	tab.SetFastPath(true)
	if !tab.FastPathEnabled() {
		t.Fatal("SetFastPath(true) should re-enable")
	}
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

func TestFastPathSpinBudgetAdapts(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	g := Granule(2)
	warmFast(t, tab, g)
	fs := tab.fastLookup(g)
	if got := fs.spin.Load(); got != fpSpinSeed {
		t.Fatalf("spin budget = %d, want seed %d", got, fpSpinSeed)
	}
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, g)) // fast-held
	// A conflicting request exhausts its spin budget, parks, and halves
	// the budget: this granule's holds are long, spinning does not pay.
	ch := make(chan error, 1)
	go func() { ch <- tab.Acquire(ctx, 2, g, ModeExclusive) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if fp := tab.FastStats(); fp.SpinParks == 0 {
		t.Fatalf("conflicting request should have spun then parked, got %+v", fp)
	}
	if got := fs.spin.Load(); got >= fpSpinSeed {
		t.Fatalf("spin budget should shrink after a park, got %d", got)
	}
	tab.ReleaseAll(1)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	tab.ReleaseAll(2)
}

// TestFastPathIndexGrows cycles far more granules than the fast index
// starts with: the index must grow to hold them all, so that once
// every granule has been promoted, every later cycle is a fast grant.
func TestFastPathIndexGrows(t *testing.T) {
	tab := NewTable()
	const n = 64 * fpMinSlots
	txn := TxnID(1)
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			mustAcquireAll(t, tab, txn, reqs(ModeExclusive, Granule(i)))
			tab.ReleaseAll(txn)
			txn++
		}
	}
	if got := tab.HoldersCount(); got != 0 {
		t.Fatalf("%d holders leaked", got)
	}
	if got := tab.granuleRecords(); got != 0 {
		t.Fatalf("%d granule records leaked", got)
	}
	if fp := tab.FastStats(); fp.Grants != n || fp.Fallbacks != 0 {
		t.Fatalf("second round should be %d fast grants with no fallback, got %+v", n, fp)
	}
	if ix := tab.fast.Load(); tab.fastN != n || 2*n > len(ix.slots) {
		t.Fatalf("index holds %d records in %d slots, want %d at most half full", tab.fastN, len(ix.slots), n)
	}
}

func TestFastPathUnpackableTxnUsesSlowPath(t *testing.T) {
	tab := NewTable()
	g := Granule(13)
	warmFast(t, tab, g)
	big := TxnID(fpTxnMask) + 7 // cannot be encoded in the word
	mustAcquireAll(t, tab, big, reqs(ModeExclusive, g))
	if fp := tab.FastStats(); fp.Grants != 0 {
		t.Fatalf("unpackable txn must not take the fast path, got %+v", fp)
	}
	if !tab.HoldsAtLeast(big, g, ModeExclusive) {
		t.Fatal("slow grant missing")
	}
	tab.ReleaseAll(big)
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}

// TestTryAcquireAllNoPartialStateOnFailure pins that a failed
// conservative probe records nothing: no hold-set entries, no granule
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
	if n := tab.granuleRecords(); n != 0 {
		t.Fatalf("%d granule records leaked", n)
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

// TestFastPathConcurrentStress mixes fast claims, incremental steps and
// releases over a small granule set with the fast path active, checking
// mutual exclusion the same way the conservative stress test does.
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
	fp := tab.FastStats()
	if fp.Grants == 0 {
		t.Fatal("stress with warm granules should see fast grants")
	}
	t.Logf("fast-path stats: %+v", fp)
}
