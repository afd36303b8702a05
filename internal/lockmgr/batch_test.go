package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/rng"
)

// TestBatchClaimUsesFastPath pins a multi-granule claim's bookkeeping: a
// claim over free granules is one grant whose holds are all visible at
// once, and a claim that meets a holder parks holding nothing, is
// granted by the release, and leaves nothing behind. The name is
// historical: the claim was once granted by a batch of compare-and-swaps
// on a lock-free path the table no longer has.
func TestBatchClaimUsesFastPath(t *testing.T) {
	tab := NewTable()
	all := []Request{{5, ModeShared}, {3, ModeExclusive}, {9, ModeExclusive}, {1, ModeShared}}
	mustAcquireAll(t, tab, 100, all)
	tab.ReleaseAll(100)

	mustAcquireAll(t, tab, 1, all[:3])
	if n := tab.LockedGranules(); n != 3 || tab.HeldBy(1) != 3 || !tab.HoldsAtLeast(1, 3, ModeExclusive) {
		t.Fatalf("LockedGranules %d, HeldBy %d after a 3-granule claim", n, tab.HeldBy(1))
	}
	if got := tab.Stats().Grants; got != 2 {
		t.Fatalf("Stats().Grants = %d, want 2 (one per claim)", got)
	}

	// Txn 2 wants granule 1, which is free, and granule 9, which txn 1
	// holds: it parks holding neither.
	ch := make(chan error, 1)
	go func() { ch <- tab.AcquireAll(context.Background(), 2, []Request{all[3], all[2]}) }()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if tab.HeldBy(2) != 0 || tab.LockedGranules() != 3 {
		t.Fatalf("parked claim holds %d granules, table has %d locked; want 0 and 3", tab.HeldBy(2), tab.LockedGranules())
	}
	tab.ReleaseAll(1)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	tab.ReleaseAll(2)

	mustAcquireAll(t, tab, 3, all)
	tab.ReleaseAll(3)
	if got := tab.Stats().Grants; got != 4 {
		t.Fatalf("Stats().Grants = %d, want 4", got)
	}
	if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
		t.Fatalf("%d holders, %d locked granules, %d waiters left", h, g, w)
	}
}

// TestBatchClaimAllocationFree is the steady-state budget of the
// paper's transaction shape on the table the engine and lockd build: a
// 16-granule claim and its release, cycling over 4096 granules,
// allocate nothing once every granule has a record — the records stay
// resident — and the hold-set pool is filled. A set of sixteen entries
// has not grown past holdSpill, so it is never retired.
func TestBatchClaimAllocationFree(t *testing.T) {
	const granules, k = 4096, 16
	for _, order := range []string{"ascending", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			tab := NewTable()
			ctx := context.Background()
			src := rng.New(7)
			claims := make([][]Request, granules/k)
			for c := range claims {
				claims[c] = make([]Request, k)
				for i := range claims[c] {
					claims[c][i] = Request{Granule: Granule(c*k + i), Mode: Mode(i % 2)}
				}
				if order == "shuffled" {
					src.Shuffle(k, func(i, j int) { claims[c][i], claims[c][j] = claims[c][j], claims[c][i] })
				}
			}
			txn := TxnID(0)
			cycle := func() {
				txn++
				if err := tab.AcquireAll(ctx, txn, claims[int(txn)%len(claims)]); err != nil {
					t.Fatal(err)
				}
				tab.ReleaseAll(txn)
			}
			for i := 0; i < 2*len(claims); i++ {
				cycle() // first pass makes the records, second fills the hold-set pool
			}
			before := tab.Stats()
			if avg := testing.AllocsPerRun(4*len(claims), cycle); avg != 0 {
				t.Fatalf("%v allocations per 16-granule claim+release, want 0", avg)
			}
			after := tab.Stats()
			if n := int64(4*len(claims) + 1); after.Grants-before.Grants != n || after.Blocks != before.Blocks {
				t.Fatalf("measured cycles were not %d immediate grants: %+v -> %+v", n, before, after)
			}
			if n := tab.granuleRecords(); n != granules {
				t.Fatalf("%d granule records for %d granules", n, granules)
			}
		})
	}
}

// exclusion checks mutual exclusion from the holders' side: every
// granted lock is entered into a per-granule owner array that only
// tolerates what the mode lattice allows.
type exclusion struct {
	t       *testing.T
	writer  []atomic.Int64 // holder in X, or 0
	readers []atomic.Int64 // holders in S
}

func newExclusion(t *testing.T, granules int) *exclusion {
	return &exclusion{t: t, writer: make([]atomic.Int64, granules), readers: make([]atomic.Int64, granules)}
}

func (e *exclusion) enter(txn TxnID, g Granule, mode Mode) {
	if mode == ModeExclusive {
		if !e.writer[g].CompareAndSwap(0, int64(txn)) {
			e.t.Errorf("granule %d: txn %d granted X while txn %d holds X", g, txn, e.writer[g].Load())
		}
		if n := e.readers[g].Load(); n != 0 {
			e.t.Errorf("granule %d: txn %d granted X beside %d readers", g, txn, n)
		}
		return
	}
	e.readers[g].Add(1)
	if w := e.writer[g].Load(); w != 0 {
		e.t.Errorf("granule %d: txn %d granted S while txn %d holds X", g, txn, w)
	}
}

func (e *exclusion) leave(txn TxnID, g Granule, mode Mode) {
	if mode == ModeExclusive {
		e.writer[g].Store(0)
	} else {
		e.readers[g].Add(-1)
	}
}

// TestBatchClaimConcurrentStress races every way into the table against
// multi-granule claims (run under -race, at several -cpu values in CI):
// overlapping multi-granule claimers, single-granule claimers,
// incremental steppers that deadlock and restart, and claims cancelled
// while parked. Holders check mutual exclusion
// themselves, and the table must end empty.
//
// The subtest names are historical: shards=1 and shards=4 were the
// stripe counts of the table this once ran on. The table has no stripes
// now, and the two subtests are the same stress run on different worker
// seeds (1000·shards + w).
func TestBatchClaimConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const granules, iters = 24, 300
			tab := NewTable()
			excl := newExclusion(t, granules)
			ctx := context.Background()
			var ids atomic.Int64
			// hold enters, yields and leaves the locks of a granted set
			// whose granules are distinct.
			hold := func(txn TxnID, rs []Request) {
				for _, r := range rs {
					excl.enter(txn, r.Granule, r.Mode)
				}
				time.Sleep(time.Microsecond)
				for _, r := range rs {
					excl.leave(txn, r.Granule, r.Mode)
				}
			}
			// draw fills rs with distinct granules in random order.
			draw := func(src *rng.Source, rs []Request) []Request {
				for i, g := range src.Subset(len(rs), granules) {
					rs[i] = Request{Granule: Granule(g), Mode: Mode(src.Intn(2))}
				}
				return rs
			}
			workers := []func(src *rng.Source){
				func(src *rng.Source) { // batch claimer
					rs := draw(src, make([]Request, 2+src.Intn(7)))
					txn := TxnID(ids.Add(1))
					if err := tab.AcquireAll(ctx, txn, rs); err != nil {
						t.Errorf("batch claim: %v", err)
						return
					}
					hold(txn, rs)
					tab.ReleaseAll(txn)
				},
				func(src *rng.Source) { // single-granule claimer
					rs := draw(src, make([]Request, 1))
					txn := TxnID(ids.Add(1))
					if err := tab.AcquireAll(ctx, txn, rs); err != nil {
						t.Errorf("single claim: %v", err)
						return
					}
					hold(txn, rs)
					tab.ReleaseAll(txn)
				},
				func(src *rng.Source) { // incremental stepper
					rs := draw(src, make([]Request, 1+src.Intn(3)))
					txn := TxnID(ids.Add(1))
					for i, r := range rs {
						if err := tab.Acquire(ctx, txn, r.Granule, r.Mode); err != nil {
							if !errors.Is(err, ErrDeadlock) {
								t.Errorf("step: %v", err)
							}
							rs = rs[:i]
							break
						}
					}
					hold(txn, rs)
					tab.ReleaseAll(txn)
				},
				func(src *rng.Source) { // claimer that gives up while parked
					rs := draw(src, make([]Request, 2+src.Intn(7)))
					txn := TxnID(ids.Add(1))
					cctx, cancel := context.WithTimeout(ctx, time.Duration(src.Intn(200))*time.Microsecond)
					err := tab.AcquireAll(cctx, txn, rs)
					cancel()
					switch {
					case err == nil:
						hold(txn, rs)
					case !errors.Is(err, context.DeadlineExceeded):
						t.Errorf("cancelled claim: %v", err)
					case tab.HeldBy(txn) != 0:
						t.Errorf("cancelled claim of txn %d left %d granules held", txn, tab.HeldBy(txn))
					}
					tab.ReleaseAll(txn)
				},
			}
			var wg sync.WaitGroup
			for w := 0; w < 2*len(workers); w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					src := rng.New(uint64(1000*shards + w))
					for i := 0; i < iters && !t.Failed(); i++ {
						workers[w%len(workers)](src)
					}
				}()
			}
			wg.Wait()
			if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
				t.Fatalf("%d holders, %d locked granules, %d waiters left", h, g, w)
			}
			if s := tab.Stats(); s.Grants == 0 || s.Blocks == 0 {
				t.Fatalf("stress should both grant at once and park, got %+v", s)
			}
		})
	}
}
