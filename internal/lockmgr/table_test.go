package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func reqs(mode Mode, granules ...Granule) []Request {
	out := make([]Request, len(granules))
	for i, g := range granules {
		out[i] = Request{Granule: g, Mode: mode}
	}
	return out
}

func mustAcquireAll(t *testing.T, tab *Table, txn TxnID, r []Request) {
	t.Helper()
	if err := tab.AcquireAll(context.Background(), txn, r); err != nil {
		t.Fatalf("AcquireAll(%d): %v", txn, err)
	}
}

func mustAcquire(t *testing.T, tab *Table, txn TxnID, g Granule, mode Mode) {
	t.Helper()
	if err := tab.Acquire(context.Background(), txn, g, mode); err != nil {
		t.Fatalf("Acquire(%d, %d, %v): %v", txn, g, mode, err)
	}
}

func TestAcquireAllDisjointGrantsImmediately(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1, 2, 3))
	mustAcquireAll(t, tab, 2, reqs(ModeExclusive, 4, 5))
	if tab.HeldBy(1) != 3 || tab.HeldBy(2) != 2 {
		t.Fatalf("held counts %d/%d, want 3/2", tab.HeldBy(1), tab.HeldBy(2))
	}
	s := tab.Stats()
	if s.Grants != 2 || s.Blocks != 0 {
		t.Fatalf("stats %+v, want 2 grants, 0 blocks", s)
	}
}

func TestAcquireAllSharedCoexist(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeShared, 7))
	mustAcquireAll(t, tab, 2, reqs(ModeShared, 7))
	if !tab.HoldsAtLeast(1, 7, ModeShared) || !tab.HoldsAtLeast(2, 7, ModeShared) {
		t.Fatal("shared holders missing")
	}
}

func TestAcquireAllConflictParksUntilRelease(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 9))
	done := make(chan error, 1)
	go func() { done <- tab.AcquireAll(context.Background(), 2, reqs(ModeExclusive, 9)) }()
	select {
	case err := <-done:
		t.Fatalf("conflicting claim granted prematurely: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tab.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("claim after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("claim never granted after release")
	}
	if !tab.HoldsAtLeast(2, 9, ModeExclusive) {
		t.Fatal("waiter did not obtain the lock")
	}
}

func TestAcquireAllAtomicity(t *testing.T) {
	// A claim overlapping a held granule must hold NOTHING while parked:
	// a third transaction claiming only the free part must not be
	// hindered by the parked claim's other granules (deadlock freedom of
	// conservative locking).
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1))
	parked := make(chan error, 1)
	go func() { parked <- tab.AcquireAll(context.Background(), 2, reqs(ModeExclusive, 1, 2)) }()
	time.Sleep(20 * time.Millisecond)
	if tab.HeldBy(2) != 0 {
		t.Fatal("parked claim holds granules")
	}
	mustAcquireAll(t, tab, 3, reqs(ModeExclusive, 2)) // must not block
	tab.ReleaseAll(3)
	tab.ReleaseAll(1)
	if err := <-parked; err != nil {
		t.Fatalf("parked claim errored: %v", err)
	}
}

func TestAcquireAllCoalescesDuplicates(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, []Request{
		{Granule: 5, Mode: ModeShared},
		{Granule: 5, Mode: ModeExclusive},
		{Granule: 5, Mode: ModeShared},
	})
	if !tab.HoldsAtLeast(1, 5, ModeExclusive) {
		t.Fatal("duplicate coalescing lost the strongest mode")
	}
	if tab.HeldBy(1) != 1 {
		t.Fatalf("HeldBy = %d, want 1", tab.HeldBy(1))
	}
}

func TestAcquireAllRejectsSecondClaim(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeShared, 1))
	if err := tab.AcquireAll(context.Background(), 1, reqs(ModeShared, 2)); err == nil {
		t.Fatal("second conservative claim by same txn accepted")
	}
}

func TestDuplicateParkedClaimNotDoubleGranted(t *testing.T) {
	// Two parked claims for the SAME txn (a retried claim racing its
	// predecessor's withdrawal across a reconnect): one release sweep
	// must grant exactly one of them and fail the other with
	// ErrAlreadyHolds. Granting both would double-book the txn, and the
	// loser's eventual ReleaseAll would strip the winner's locks.
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 5))
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- tab.AcquireAll(context.Background(), 2, reqs(ModeExclusive, 5)) }()
	}
	deadline := time.Now().Add(2 * time.Second)
	for tab.WaitersCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate claims never both parked")
		}
		time.Sleep(time.Millisecond)
	}
	tab.ReleaseAll(1)
	e1, e2 := <-done, <-done
	if e2 == nil {
		e1, e2 = e2, e1
	}
	if e1 != nil {
		t.Fatalf("neither duplicate claim was granted: %v / %v", e1, e2)
	}
	if !errors.Is(e2, ErrAlreadyHolds) {
		t.Fatalf("second same-txn claim: got %v, want ErrAlreadyHolds", e2)
	}
	if tab.HeldBy(2) != 1 {
		t.Fatalf("txn 2 holds %d granules, want 1", tab.HeldBy(2))
	}
	tab.ReleaseAll(2)
	if tab.HoldersCount() != 0 || tab.WaitersCount() != 0 {
		t.Fatal("table not clean after duplicate-claim resolution")
	}
}

func TestAcquireAllContextCancel(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tab.AcquireAll(ctx, 2, reqs(ModeExclusive, 1)) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The withdrawn claim must not be granted later.
	tab.ReleaseAll(1)
	time.Sleep(10 * time.Millisecond)
	if tab.HeldBy(2) != 0 {
		t.Fatal("cancelled claim was granted")
	}
}

func TestClaimFIFOOrderOnSameGranule(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1))
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 2; i <= 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tab.AcquireAll(context.Background(), TxnID(i), reqs(ModeExclusive, 1)); err != nil {
				t.Errorf("claim %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			tab.ReleaseAll(TxnID(i))
		}()
		time.Sleep(20 * time.Millisecond) // establish queue order
	}
	tab.ReleaseAll(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order %v, want [2 3 4]", order)
	}
}

func TestNonStrictAllowsOvertaking(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1))
	parked := make(chan error, 1)
	go func() { parked <- tab.AcquireAll(context.Background(), 2, reqs(ModeExclusive, 1, 2)) }()
	time.Sleep(20 * time.Millisecond)
	// Default policy: txn 3's disjoint claim overtakes txn 2's parked one.
	done := make(chan error, 1)
	go func() { done <- tab.AcquireAll(context.Background(), 3, reqs(ModeExclusive, 3)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("disjoint claim blocked behind a parked claim")
	}
	tab.ReleaseAll(1)
	<-parked
}

func TestIncrementalAcquireAndReacquire(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, 10, ModeShared); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring at equal or weaker mode is a no-op.
	if err := tab.Acquire(ctx, 1, 10, ModeShared); err != nil {
		t.Fatal(err)
	}
	if err := tab.Acquire(ctx, 1, 10, ModeExclusive); err != nil {
		t.Fatal(err) // sole holder: upgrade succeeds immediately
	}
	if !tab.HoldsAtLeast(1, 10, ModeExclusive) {
		t.Fatal("upgrade lost")
	}
	if err := tab.Acquire(ctx, 1, 10, ModeShared); err != nil {
		t.Fatal("weaker re-acquire after upgrade failed")
	}
}

func TestIncrementalBlocksAndWakes(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, 1, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tab.Acquire(ctx, 2, 1, ModeShared) }()
	select {
	case <-done:
		t.Fatal("incompatible acquire granted")
	case <-time.After(20 * time.Millisecond):
	}
	tab.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalNoOvertakingWriterNotStarved(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, 1, ModeShared); err != nil {
		t.Fatal(err)
	}
	writer := make(chan error, 1)
	go func() { writer <- tab.Acquire(ctx, 2, 1, ModeExclusive) }()
	time.Sleep(20 * time.Millisecond)
	// A later reader must queue behind the waiting writer.
	reader := make(chan error, 1)
	go func() { reader <- tab.Acquire(ctx, 3, 1, ModeShared) }()
	select {
	case <-reader:
		t.Fatal("reader overtook waiting writer")
	case <-time.After(20 * time.Millisecond):
	}
	tab.ReleaseAll(1)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	tab.ReleaseAll(2)
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetectedTwoTxns(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, 1, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if err := tab.Acquire(ctx, 2, 2, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- tab.Acquire(ctx, 1, 2, ModeExclusive) }() // 1 waits on 2
	time.Sleep(20 * time.Millisecond)
	err := tab.Acquire(ctx, 2, 1, ModeExclusive) // closes the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	tab.ReleaseAll(2) // victim aborts
	if err := <-step; err != nil {
		t.Fatalf("survivor errored: %v", err)
	}
	tab.ReleaseAll(1)
	if s := tab.Stats(); s.Deadlocks != 1 {
		t.Fatalf("deadlock count %d, want 1", s.Deadlocks)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// Two shared holders both upgrading is the classic conversion
	// deadlock: one must be chosen as victim.
	tab := NewTable()
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, 1, ModeShared); err != nil {
		t.Fatal(err)
	}
	if err := tab.Acquire(ctx, 2, 1, ModeShared); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- tab.Acquire(ctx, 1, 1, ModeExclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := tab.Acquire(ctx, 2, 1, ModeExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader: err = %v, want ErrDeadlock", err)
	}
	tab.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatalf("first upgrader: %v", err)
	}
}

func TestDeadlockThreeWayCycle(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	for i := TxnID(1); i <= 3; i++ {
		if err := tab.Acquire(ctx, i, Granule(i), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	go func() { errs <- tab.Acquire(ctx, 1, 2, ModeExclusive) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- tab.Acquire(ctx, 2, 3, ModeExclusive) }()
	time.Sleep(20 * time.Millisecond)
	// 3 -> 1 closes the 3-cycle; 3 is the victim.
	if err := tab.Acquire(ctx, 3, 1, ModeExclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	tab.ReleaseAll(3)
	if err := <-errs; err != nil { // txn 2 obtains granule 3
		t.Fatal(err)
	}
	tab.ReleaseAll(2)
	if err := <-errs; err != nil { // txn 1 obtains granule 2
		t.Fatal(err)
	}
}

func TestIncrementalContextCancel(t *testing.T) {
	tab := NewTable()
	if err := tab.Acquire(context.Background(), 1, 1, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tab.Acquire(ctx, 2, 1, ModeExclusive) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	tab.ReleaseAll(1)
	time.Sleep(10 * time.Millisecond)
	if tab.HeldBy(2) != 0 {
		t.Fatal("cancelled waiter was granted")
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitParked waits until tab has n parked requests.
func waitParked(t *testing.T, tab *Table, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); tab.WaitersCount() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked, want %d", tab.WaitersCount(), n)
		}
	}
}

// granted fails the test unless the parked request behind done is
// granted promptly.
func granted(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatalf("%s still parked 500ms after its last blocker left the queue", what)
	}
}

// A waiter that leaves the queue without a release — a cancelled context
// here, a wound in TestWoundParkedHolder — must hand the head of the
// queue on: whoever was parked only behind it is granted at once.
func TestCancelledHeadWaiterWakesQueueBehindIt(t *testing.T) {
	// Txn 1 holds S, txn 2 parks for X, txn 3 parks for S behind it.
	type lockFunc func(ctx context.Context, txn TxnID, mode Mode) error
	cases := []struct {
		name string
		lock func(tab *Table) lockFunc
	}{
		{"table", func(tab *Table) lockFunc {
			return func(ctx context.Context, txn TxnID, mode Mode) error { return tab.Acquire(ctx, txn, 1, mode) }
		}},
		// Every hierarchical transaction queues on the root: S held
		// there, a writer's IX parked, a reader's IS behind.
		{"hier-root", func(tab *Table) lockFunc {
			h := NewHierTable(tab)
			return func(ctx context.Context, txn TxnID, mode Mode) error {
				if txn == 1 {
					return h.Lock(ctx, txn, path(nDB), mode)
				}
				return h.Lock(ctx, txn, path(nDB, nRel), mode)
			}
		}},
		// Judged by age (wound-wait): 2 and 3 are younger than holder 1
		// and 3 than 2, so both wait, and no detector edge is there to
		// clear.
		{"aged", func(tab *Table) lockFunc {
			return func(ctx context.Context, txn TxnID, mode Mode) error { return tab.AcquireAged(ctx, txn, 1, mode, true) }
		}},
	}
	// The fast= axis is historical: it once chose whether the table had a
	// lock-free fast path. Both subtests now run the same schedule.
	for _, fast := range []bool{true, false} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/fast=%v", tc.name, fast), func(t *testing.T) {
				tab := NewTable()
				lock := tc.lock(tab)
				if err := lock(context.Background(), 1, ModeShared); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				head := make(chan error, 1)
				go func() { head <- lock(ctx, 2, ModeExclusive) }()
				waitParked(t, tab, 1)
				next := make(chan error, 1)
				go func() { next <- lock(context.Background(), 3, ModeShared) }()
				waitParked(t, tab, 2)
				cancel()
				if err := <-head; !errors.Is(err, context.Canceled) {
					t.Fatalf("head waiter: err = %v, want context.Canceled", err)
				}
				granted(t, "waiter behind the cancelled head", next)
			})
		}
	}
}

// The same lost wake-up, extended to the hang it caused: the waiter left
// parked behind a cancelled head had no waits-for edge, so when a holder
// then waited on something it held, the detector saw no cycle and both
// parked forever with Deadlocks == 0. Settled, the waiter is granted and
// the holder's wait is an ordinary one.
//
// The fast= subtest names are historical, as in the test above.
func TestCancelledHeadWaiterLeavesNoEdgelessWaiter(t *testing.T) {
	for _, fast := range []bool{true, false} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			tab := NewTable()
			bg := context.Background()
			mustAcquire(t, tab, 1, 1, ModeShared)
			mustAcquire(t, tab, 3, 2, ModeExclusive)
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			head := make(chan error, 1)
			go func() { head <- tab.Acquire(ctx, 2, 1, ModeExclusive) }()
			waitParked(t, tab, 1)
			next := make(chan error, 1)
			go func() { next <- tab.Acquire(bg, 3, 1, ModeShared) }()
			waitParked(t, tab, 2)
			cancel()
			if err := <-head; !errors.Is(err, context.Canceled) {
				t.Fatalf("head waiter: err = %v, want context.Canceled", err)
			}
			holder := make(chan error, 1)
			go func() { holder <- tab.Acquire(bg, 1, 2, ModeExclusive) }() // 1 waits on 3
			granted(t, "txn 3, behind the cancelled head", next)
			tab.ReleaseAll(3)
			granted(t, "txn 1, waiting on txn 3's granule", holder)
			tab.ReleaseAll(1)
			if s := tab.Stats(); s.Deadlocks != 0 {
				t.Fatalf("%d deadlock victims in a schedule with no cycle", s.Deadlocks)
			}
		})
	}
}

func TestReleaseAllIdempotentAndUnknown(t *testing.T) {
	tab := NewTable()
	tab.ReleaseAll(99) // unknown txn: no-op
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, 1))
	tab.ReleaseAll(1)
	tab.ReleaseAll(1)
	if tab.HeldBy(1) != 0 {
		t.Fatal("locks survive double release")
	}
}

// TestTableGarbageCollectsGranules pins the resident-record bound: an
// empty granule record stays in the table, so a granule claimed again
// finds its record, until the table holds granuleResident of them; past
// that, a release deletes the empty records it leaves, so a client that
// names ever-new granules cannot grow the table without bound.
func TestTableGarbageCollectsGranules(t *testing.T) {
	tab := NewTable()
	cycle := func(txn TxnID, g Granule) {
		t.Helper()
		mustAcquireAll(t, tab, txn, reqs(ModeExclusive, g))
		tab.ReleaseAll(txn)
	}
	for i := 0; i < 1000; i++ {
		cycle(1, 7)
	}
	if n := tab.granuleRecords(); n != 1 {
		t.Fatalf("one granule claimed 1000 times has %d records, want 1", n)
	}
	for i := 0; i < granuleResident+1000; i++ {
		cycle(TxnID(i+2), Granule(i))
	}
	if n := tab.granuleRecords(); n > granuleResident {
		t.Fatalf("%d granule records after %d distinct granules, want at most %d", n, granuleResident+1000, granuleResident)
	}
	if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
		t.Fatalf("%d holders, %d locked granules, %d waiters left", h, g, w)
	}
}

// graphEdges reads the waits-for graph's edge count under the latch.
func graphEdges(tab *Table) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.det.Edges()
}

func TestConcurrentConservativeStress(t *testing.T) {
	// Many goroutines conservatively claiming overlapping granule sets:
	// no two incompatible holders may coexist, and everything drains.
	tab := NewTable()
	const workers = 16
	const iters = 200
	var inCritical [8]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(w*iters + i + 1)
				g1 := Granule(i % 8)
				g2 := Granule((i + w) % 8)
				if err := tab.AcquireAll(context.Background(), txn, reqs(ModeExclusive, g1, g2)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if inCritical[g1].Add(1) != 1 {
					t.Errorf("mutual exclusion violated on granule %d", g1)
				}
				if g2 != g1 && inCritical[g2].Add(1) != 1 {
					t.Errorf("mutual exclusion violated on granule %d", g2)
				}
				inCritical[g1].Add(-1)
				if g2 != g1 {
					inCritical[g2].Add(-1)
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentClaimAsNeededStress(t *testing.T) {
	// Incremental acquisition with deliberate lock-order inversion:
	// deadlocks must be detected (not hang) and victims retried to
	// completion.
	tab := NewTable()
	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(1 + w + workers*(i+1))
				a, b := Granule(i%4), Granule((i+1+w)%4)
			retry:
				if err := tab.Acquire(context.Background(), txn, a, ModeExclusive); err != nil {
					if errors.Is(err, ErrDeadlock) {
						deadlocks.Add(1)
						tab.ReleaseAll(txn)
						goto retry
					}
					t.Errorf("acquire a: %v", err)
					return
				}
				if a != b {
					if err := tab.Acquire(context.Background(), txn, b, ModeExclusive); err != nil {
						if errors.Is(err, ErrDeadlock) {
							deadlocks.Add(1)
							tab.ReleaseAll(txn)
							goto retry
						}
						t.Errorf("acquire b: %v", err)
						return
					}
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("claim-as-needed stress hung: likely an undetected deadlock")
	}
	if tab.Stats().Deadlocks != deadlocks.Load() {
		t.Fatalf("stats deadlocks %d != observed %d", tab.Stats().Deadlocks, deadlocks.Load())
	}
}

// The three TestSharded* tests keep the names they had when the table
// was striped; they now run on the one latch, where what they check
// still holds: multi-granule claims drain without a wedge, the
// detector sees every cycle, and the waits-for graph empties.

// TestShardedConservativeStress: many goroutines claim overlapping
// three-granule sets while a sampler reads the activity counters and
// occupancy snapshots, which must never go negative. A wedge is caught
// by the timeout below, a data race by the race detector, and mutual
// exclusion is checked as in TestConcurrentConservativeStress.
func TestShardedConservativeStress(t *testing.T) {
	tab := NewTable()
	const workers = 16
	const iters = 150
	const granules = 24
	var inCritical [granules]atomic.Int32
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(w*iters + i + 1)
				// Three granules with heavy overlap across workers.
				gs := []Granule{
					Granule(i % granules),
					Granule((i + w) % granules),
					Granule((i * 5) % granules),
				}
				rs := make([]Request, len(gs))
				for j, g := range gs {
					rs[j] = Request{Granule: g, Mode: ModeExclusive}
				}
				if err := tab.AcquireAll(context.Background(), txn, rs); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				seen := map[Granule]bool{}
				for _, g := range gs {
					if seen[g] {
						continue
					}
					seen[g] = true
					if inCritical[g].Add(1) != 1 {
						t.Errorf("mutual exclusion violated on granule %d", g)
					}
				}
				for g := range seen {
					inCritical[g].Add(-1)
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			st := tab.Stats()
			if st.Grants < 0 || st.Blocks < 0 || st.Deadlocks < 0 {
				t.Errorf("negative stats snapshot: %+v", st)
				return
			}
			if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h < 0 || g < 0 || w < 0 {
				t.Errorf("negative occupancy snapshot: %d holders, %d granules, %d waiters", h, g, w)
				return
			}
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("conservative stress wedged")
	}
	<-samplerDone
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := tab.WaitersCount(); n != 0 {
		t.Fatalf("%d waiters leaked", n)
	}
}

// TestShardedCrossStripeCycle builds a deterministic two-transaction
// deadlock: txn 1 parks behind txn 2's granule, then txn 2's request
// for txn 1's granule closes the cycle and must fail synchronously
// with ErrDeadlock. Once both are gone the waits-for graph, which a
// release consults before it clears a transaction from it, must be
// empty.
func TestShardedCrossStripeCycle(t *testing.T) {
	tab := NewTable()
	a, b := Granule(1), Granule(2)
	ctx := context.Background()
	if err := tab.Acquire(ctx, 1, a, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if err := tab.Acquire(ctx, 2, b, ModeExclusive); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- tab.Acquire(ctx, 1, b, ModeExclusive) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if err := tab.Acquire(ctx, 2, a, ModeExclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle-closing acquire: got %v, want ErrDeadlock", err)
	}
	tab.ReleaseAll(2) // victim aborts: txn 1's parked request wakes
	if err := <-parked; err != nil {
		t.Fatalf("survivor's parked acquire: %v", err)
	}
	tab.ReleaseAll(1)
	if n := graphEdges(tab); n != 0 {
		t.Fatalf("waits-for graph has %d edges after drain", n)
	}
}

// TestShardedIncrementalDeadlocks drives claim-as-needed transactions
// through opposite granule orders until deadlock victims appear, and
// checks that victims are counted, no holder is left and the waits-for
// graph drains.
func TestShardedIncrementalDeadlocks(t *testing.T) {
	tab := NewTable()
	const workers = 8
	const iters = 100
	var deadlocks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(w*iters + i + 1)
				// Half ascend, half descend through the granules — the
				// classic deadlock recipe. Gosched between steps forces
				// interleaving even on a single-CPU scheduler.
				order := []Granule{Granule(i % 6), Granule((i + 3) % 6)}
				if w%2 == 1 {
					order[0], order[1] = order[1], order[0]
				}
				for _, g := range order {
					runtime.Gosched()
					if err := tab.Acquire(context.Background(), txn, g, ModeExclusive); err != nil {
						if !errors.Is(err, ErrDeadlock) {
							t.Errorf("worker %d: %v", w, err)
						}
						deadlocks.Add(1)
						break
					}
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	if deadlocks.Load() == 0 {
		t.Fatal("adversarial schedule produced no deadlock victims")
	}
	if tab.Stats().Deadlocks == 0 {
		t.Fatal("Stats().Deadlocks did not count the victims")
	}
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if n := graphEdges(tab); n != 0 {
		t.Fatalf("waits-for graph has %d edges after drain", n)
	}
}

func TestModeString(t *testing.T) {
	if ModeShared.String() != "S" || ModeExclusive.String() != "X" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func BenchmarkConservativeClaimCycle(b *testing.B) {
	tab := NewTable()
	r := reqs(ModeExclusive, 1, 2, 3, 4)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		txn := TxnID(i + 1)
		if err := tab.AcquireAll(ctx, txn, r); err != nil {
			b.Fatal(err)
		}
		tab.ReleaseAll(txn)
	}
}

func BenchmarkContendedClaims(b *testing.B) {
	tab := NewTable()
	ctx := context.Background()
	var id atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		base := TxnID(id.Add(1)) * 1_000_000
		i := TxnID(0)
		for pb.Next() {
			i++
			txn := base + i
			if err := tab.AcquireAll(ctx, txn, reqs(ModeExclusive, Granule(i%16))); err != nil {
				b.Error(err)
				return
			}
			tab.ReleaseAll(txn)
		}
	})
}
