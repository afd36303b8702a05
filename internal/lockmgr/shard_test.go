package lockmgr

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardsRoundsToPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16}
	for in, want := range cases {
		if got := NewTable(WithShards(in)).Shards(); got != want {
			t.Errorf("WithShards(%d).Shards() = %d, want %d", in, got, want)
		}
	}
	if got := NewTable().Shards(); got != 1 {
		t.Errorf("default Shards() = %d, want 1", got)
	}
}

func TestShardSetCanonicalOrder(t *testing.T) {
	tab := NewTable(WithShards(8))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Granule: Granule(i * 7), Mode: ModeShared}
	}
	sh := tab.shardSet(nil, reqs)
	for i := 1; i < len(sh); i++ {
		if sh[i] <= sh[i-1] {
			t.Fatalf("shard set not strictly ascending: %v", sh)
		}
	}
}

// TestShardedConservativeStress is the shard-ordered multi-granule
// discipline under -race: many goroutines claim overlapping granule
// sets that straddle several stripes. A lock-order inversion between
// stripes would deadlock the test (guarded by the timeout below); a
// data race would trip the race detector. Mutual exclusion is checked
// the same way as the single-shard stress test.
func TestShardedConservativeStress(t *testing.T) {
	tab := NewTable(WithShards(8))
	const workers = 16
	const iters = 150
	const granules = 24 // spread across all 8 stripes
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
				// Three granules chosen to cross stripe boundaries, with
				// heavy overlap across workers.
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
	// Aggregation sampler: the documented semantics of Stats,
	// HoldersCount, LockedGranules and WaitersCount are an approximate
	// (per-stripe-consistent) snapshot — never a negative one. Sample
	// them continuously while the stress traffic runs.
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
			if n := tab.HoldersCount(); n < 0 {
				t.Errorf("negative holders count %d", n)
				return
			}
			if n := tab.LockedGranules(); n < 0 {
				t.Errorf("negative locked-granule count %d", n)
				return
			}
			if n := tab.WaitersCount(); n < 0 {
				t.Errorf("negative waiter count %d", n)
				return
			}
		}
	}()
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged: possible cross-stripe lock-order inversion")
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
// deadlock whose granules live on different stripes: txn 1 parks behind
// txn 2's granule, then txn 2's request for txn 1's granule closes the
// cycle and must fail synchronously with ErrDeadlock — proving the
// dedicated-mutex detector still sees edges that cross stripes.
func TestShardedCrossStripeCycle(t *testing.T) {
	tab := NewTable(WithShards(4))
	a := Granule(1)
	b := a + 1
	for tab.shardIndex(b) == tab.shardIndex(a) {
		b++
	}
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
	if tab.detEdges.Load() != 0 {
		t.Fatalf("edge mirror nonzero after drain: %d", tab.detEdges.Load())
	}
}

// TestShardedIncrementalDeadlocks drives claim-as-needed transactions
// across stripes until deadlock victims appear, proving the detector
// still sees cross-stripe cycles when edges live behind its dedicated
// mutex.
func TestShardedIncrementalDeadlocks(t *testing.T) {
	tab := NewTable(WithShards(4))
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
		t.Fatal("Stats().Deadlocks did not aggregate victim count")
	}
	if n := tab.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
	if tab.detEdges.Load() != 0 {
		t.Fatalf("waits-for edge mirror nonzero after drain: %d", tab.detEdges.Load())
	}
}

// TestShardedStatsAggregate pins that the activity counters and
// occupancy snapshots aggregate across stripes.
func TestShardedStatsAggregate(t *testing.T) {
	tab := NewTable(WithShards(8))
	for i := 0; i < 32; i++ {
		if err := tab.AcquireAll(context.Background(), TxnID(i+1),
			reqs(ModeExclusive, Granule(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.Stats().Grants; got != 32 {
		t.Fatalf("Grants = %d, want 32", got)
	}
	if got := tab.HoldersCount(); got != 32 {
		t.Fatalf("HoldersCount = %d, want 32", got)
	}
	if got := tab.LockedGranules(); got != 32 {
		t.Fatalf("LockedGranules = %d, want 32", got)
	}
	// Park one claim spanning several stripes: counted exactly once.
	blocked := make(chan error, 1)
	go func() {
		blocked <- tab.AcquireAll(context.Background(), 100,
			reqs(ModeExclusive, 0, 1, 2, 3, 4, 5, 6, 7))
	}()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	if got := tab.Stats().Blocks; got != 1 {
		t.Fatalf("Blocks = %d, want 1", got)
	}
	for i := 0; i < 32; i++ {
		tab.ReleaseAll(TxnID(i + 1))
	}
	if err := <-blocked; err != nil {
		t.Fatalf("parked claim: %v", err)
	}
	tab.ReleaseAll(100)
	if got := tab.HoldersCount(); got != 0 {
		t.Fatalf("HoldersCount after drain = %d, want 0", got)
	}
}

// TestShardedStrictFIFOPerStripe pins the strict-FIFO guarantee on a
// sharded table: during a resolution sweep, a still-parked claim blocks
// later-arriving claims on its stripes, even when the later claim has
// become grantable. (Entry-time immediate grants still bypass the
// queue, exactly as on the single-stripe table.)
func TestShardedStrictFIFOPerStripe(t *testing.T) {
	tab := NewTable(WithShards(4), StrictFIFO())
	// Find two distinct granules on the same stripe so both claims below
	// share a resolution sweep.
	a := Granule(10)
	b := a + 1
	for tab.shardIndex(b) != tab.shardIndex(a) {
		b++
	}
	mustAcquireAll(t, tab, 1, reqs(ModeExclusive, a))
	mustAcquireAll(t, tab, 2, reqs(ModeExclusive, b))
	// Claim 3 (earlier) wants both; claim 4 (later) wants only b.
	third := make(chan error, 1)
	go func() {
		third <- tab.AcquireAll(context.Background(), 3, reqs(ModeExclusive, a, b))
	}()
	waitFor(t, func() bool { return tab.WaitersCount() == 1 })
	fourth := make(chan error, 1)
	go func() {
		fourth <- tab.AcquireAll(context.Background(), 4, reqs(ModeExclusive, b))
	}()
	waitFor(t, func() bool { return tab.WaitersCount() == 2 })
	// Releasing b makes claim 4 grantable, but claim 3 (still blocked on
	// a) is ahead of it on the stripe: strict FIFO keeps 4 parked.
	tab.ReleaseAll(2)
	select {
	case err := <-fourth:
		t.Fatalf("later claim overtook a parked earlier claim under StrictFIFO (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	tab.ReleaseAll(1)
	if err := <-third; err != nil {
		t.Fatalf("claim 3: %v", err)
	}
	tab.ReleaseAll(3)
	if err := <-fourth; err != nil {
		t.Fatalf("claim 4: %v", err)
	}
	tab.ReleaseAll(4)
}

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

func TestDetectorEdgeCounter(t *testing.T) {
	d := NewDetector()
	d.AddEdge(1, 2)
	d.AddEdge(1, 2) // duplicate: not double-counted
	d.AddEdge(1, 3)
	d.AddEdge(2, 3)
	d.AddEdge(3, 3) // self-edge: ignored
	if got := d.Edges(); got != 3 {
		t.Fatalf("Edges = %d, want 3", got)
	}
	d.RemoveWaiter(1)
	if got := d.Edges(); got != 1 {
		t.Fatalf("Edges after RemoveWaiter = %d, want 1", got)
	}
	d.AddEdge(1, 3)
	d.RemoveTxn(3) // removes 1→3 and 2→3
	if got := d.Edges(); got != 0 {
		t.Fatalf("Edges after RemoveTxn = %d, want 0", got)
	}
}
