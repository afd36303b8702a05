package engine

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"granulock/internal/engine/cc"
	"granulock/internal/lockmgr"
	"granulock/internal/race"
)

// mustOpen opens an in-memory database or fails the test.
func mustOpen(t *testing.T, dbsize int, opts ...Option) *DB {
	t.Helper()
	db, err := Open(dbsize, opts...)
	if err != nil {
		t.Fatalf("Open(%d): %v", dbsize, err)
	}
	return db
}

// openBase opens the tests' usual database — 1000 entities seeded with
// 100 each, 4 nodes, 50 granules, conservative — with opts on top.
func openBase(t *testing.T, opts ...Option) *DB {
	t.Helper()
	base := []Option{WithNodes(4), WithGranules(50), WithInitialValue(100)}
	return mustOpen(t, 1000, append(base, opts...)...)
}

func TestOpenValidation(t *testing.T) {
	bad := map[string][]Option{
		"nodes 0":          {WithNodes(0)},
		"granules 0":       {WithGranules(0)},
		"granules >dbsize": {WithGranules(11)},
		"protocol":         {WithGranules(5), WithProtocol("no-such-protocol")},
	}
	for name, opts := range bad {
		if _, err := Open(10, opts...); err == nil {
			t.Errorf("invalid config (%s) accepted", name)
		}
	}
	if _, err := Open(0); err == nil {
		t.Error("dbsize 0 accepted")
	}
}

func TestOpenOptions(t *testing.T) {
	// The functional-options constructor with defaults: one node, finest
	// granularity, conservative protocol.
	db, err := Open(10)
	if err != nil {
		t.Fatalf("Open(10): %v", err)
	}
	if cfg := db.cfg; cfg.Nodes != 1 || cfg.Granules != 10 || cfg.Protocol != Conservative {
		t.Fatalf("defaults %+v", cfg)
	}
	db, err = Open(100,
		WithNodes(4), WithGranules(10), WithProtocol(WoundWait),
		WithInitialValue(7), WithEscalationThreshold(3))
	if err != nil {
		t.Fatalf("Open with options: %v", err)
	}
	cfg := db.cfg
	if cfg.Nodes != 4 || cfg.Granules != 10 || cfg.Protocol != WoundWait ||
		cfg.InitialValue != 7 || cfg.EscalationThreshold != 3 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if _, err := Open(10, WithProtocol("bogus")); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestInitialBalance(t *testing.T) {
	db := openBase(t)
	if got := db.TotalBalance(); got != 1000*100 {
		t.Fatalf("initial balance %d, want 100000", got)
	}
	v, err := db.Read(0)
	if err != nil || v != 100 {
		t.Fatalf("Read(0) = %d, %v", v, err)
	}
	if _, err := db.Read(-1); err == nil {
		t.Fatal("negative entity read accepted")
	}
	if _, err := db.Read(1000); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestPartitioningRoundRobin(t *testing.T) {
	db := mustOpen(t, 10, WithNodes(3), WithGranules(5), WithInitialValue(1))
	// Entities 0..9 over 3 nodes: node 0 owns {0,3,6,9}, node 1 {1,4,7},
	// node 2 {2,5,8}.
	if len(db.nodes[0].values) != 4 || len(db.nodes[1].values) != 3 || len(db.nodes[2].values) != 3 {
		t.Fatalf("partition sizes %d/%d/%d", len(db.nodes[0].values), len(db.nodes[1].values), len(db.nodes[2].values))
	}
	if db.nodeOf(7) != 1 || db.localIndex(7) != 2 {
		t.Fatalf("entity 7 at node %d slot %d", db.nodeOf(7), db.localIndex(7))
	}
}

func TestGranuleOfContiguous(t *testing.T) {
	db := mustOpen(t, 100, WithNodes(2), WithGranules(10))
	// Entities 0..9 in granule 0, 10..19 in granule 1, ...
	for e := 0; e < 100; e++ {
		want := lockmgr.Granule(e / 10)
		if got := db.GranuleOf(e); got != want {
			t.Fatalf("GranuleOf(%d) = %d, want %d", e, got, want)
		}
	}
}

func TestTransferMovesMoney(t *testing.T) {
	db := openBase(t)
	if _, err := db.Execute(context.Background(), Transfer(3, 7, 25)); err != nil {
		t.Fatal(err)
	}
	a, _ := db.Read(3)
	b, _ := db.Read(7)
	if a != 75 || b != 125 {
		t.Fatalf("balances %d/%d, want 75/125", a, b)
	}
	if db.TotalBalance() != 100000 {
		t.Fatalf("conservation violated: %d", db.TotalBalance())
	}
}

func TestReadTxnSums(t *testing.T) {
	db := openBase(t)
	sum, err := db.Execute(context.Background(), Txn{Ops: []Op{{Entity: 1}, {Entity: 2}, {Entity: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 300 {
		t.Fatalf("read sum %d, want 300", sum)
	}
}

func TestEmptyTxn(t *testing.T) {
	db := openBase(t)
	sum, err := db.Execute(context.Background(), Txn{})
	if err != nil || sum != 0 {
		t.Fatalf("empty txn: %d, %v", sum, err)
	}
}

func TestExecuteRejectsBadEntity(t *testing.T) {
	db := openBase(t)
	if _, err := db.Execute(context.Background(), Transfer(0, 5000, 1)); err == nil {
		t.Fatal("out-of-range entity accepted")
	}
}

func TestLockSetModes(t *testing.T) {
	db := mustOpen(t, 100, WithNodes(2), WithGranules(10))
	// Read entity 5 (granule 0), write entity 7 (granule 0): X wins.
	// Read entity 15 (granule 1): S.
	sc := new(lockScratch)
	reqs, err := db.lockSet(sc, Txn{Ops: []Op{{Entity: 5}, {Entity: 7, Delta: 1}, {Entity: 15}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("%d requests, want 2", len(reqs))
	}
	if reqs[0].Granule != 0 || reqs[0].Mode != lockmgr.ModeExclusive {
		t.Fatalf("granule 0 request %+v", reqs[0])
	}
	if reqs[1].Granule != 1 || reqs[1].Mode != lockmgr.ModeShared {
		t.Fatalf("granule 1 request %+v", reqs[1])
	}
	// Ops in no particular order, on a reused scratch: one request per
	// granule, in order of first appearance, X wherever any op writes.
	reqs, err = db.lockSet(sc, Txn{Ops: []Op{
		{Entity: 95}, {Entity: 12}, {Entity: 97, Delta: 1}, {Entity: 40, Delta: -1}, {Entity: 15}, {Entity: 3}, {Entity: 41},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []lockmgr.Request{
		{Granule: 9, Mode: lockmgr.ModeExclusive},
		{Granule: 1, Mode: lockmgr.ModeShared},
		{Granule: 4, Mode: lockmgr.ModeExclusive},
		{Granule: 0, Mode: lockmgr.ModeShared},
	}
	if !slices.Equal(reqs, want) {
		t.Fatalf("unordered ops: requests %v, want %v", reqs, want)
	}
}

// TestFullReadClaimIsLinear pins the cost of the largest claim the
// engine makes — FullReadTxn at one granule per entity, what Checkpoint
// preclaims: building the request set, claiming it and releasing it
// must cost per granule at 4096 granules what it costs at 512. Any
// per-granule rescan of the request or hold set (a dedupe by pairwise
// scan, a membership probe of a map-less hold vector) would make the
// larger database eight times dearer per granule.
func TestFullReadClaimIsLinear(t *testing.T) {
	perGranule := func(n int) time.Duration {
		db := mustOpen(t, n)
		txn := db.FullReadTxn()
		sc := new(lockScratch)
		ctx := context.Background()
		var best time.Duration
		for rep := 0; rep < 32; rep++ {
			tx := &cc.Tx{ID: lockmgr.TxnID(rep + 1)}
			start := time.Now()
			reqs, err := db.lockSet(sc, txn)
			if err != nil || len(reqs) != n {
				t.Fatalf("lockSet: %d requests, %v", len(reqs), err)
			}
			if err := db.inst.Acquire(ctx, tx, reqs); err != nil {
				t.Fatal(err)
			}
			db.inst.End(tx)
			// The first pass is the granules' first touch; after it,
			// take the best time, the one least disturbed by the host.
			if d := time.Since(start); rep > 0 && (best == 0 || d < best) {
				best = d
			}
		}
		if st := db.Stats(); st.Lock.Grants != 32 {
			t.Fatalf("%d grants for 32 claims", st.Lock.Grants)
		}
		return best / time.Duration(n)
	}
	small, large := perGranule(512), perGranule(4096)
	t.Logf("claim+release per granule: %v at 512 granules, %v at 4096", small, large)
	if large > 3*small+time.Nanosecond {
		t.Fatalf("claim+release costs %v per granule at 4096 granules against %v at 512: not linear", large, small)
	}
}

// conservationStress hammers the database with concurrent transfers and
// verifies the total balance is preserved — the lost-update anomaly of
// §1 is exactly what this catches if locking is broken.
func conservationStress(t *testing.T, protocol Protocol, granules int) {
	t.Helper()
	db := openBase(t, WithProtocol(protocol), WithGranules(granules))
	want := db.TotalBalance()

	const workers = 8
	const txns = 200
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				from := (w*31 + i*17) % 1000
				to := (w*13 + i*7 + 1) % 1000
				if _, err := db.Execute(ctx, Transfer(from, to, 5)); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := db.TotalBalance(); got != want {
		t.Fatalf("conservation violated under %v/%d granules: %d, want %d", protocol, granules, got, want)
	}
	if s := db.Stats(); s.Committed != workers*txns {
		t.Fatalf("committed %d, want %d", s.Committed, workers*txns)
	}
}

func TestConservationHierarchical(t *testing.T) {
	for _, granules := range []int{1, 50, 1000} {
		conservationStress(t, Hierarchical, granules)
	}
}

func TestHierarchicalEscalation(t *testing.T) {
	db := mustOpen(t, 1000, WithNodes(2), WithProtocol(Hierarchical),
		WithInitialValue(100), WithEscalationThreshold(5))
	// One transaction touching many granules triggers escalation to a
	// database-level lock.
	ops := make([]Op, 0, 20)
	for e := 0; e < 1000; e += 100 {
		ops = append(ops, Op{Entity: e, Delta: 1}, Op{Entity: e + 50, Delta: -1})
	}
	if _, err := db.Execute(context.Background(), Txn{Ops: ops}); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Escalations == 0 {
		t.Fatal("no escalation despite 20 granules against threshold 5")
	}
	if db.TotalBalance() != 1000*100 {
		t.Fatalf("conservation violated: %d", db.TotalBalance())
	}
}

func TestHierarchicalMixedReadWriteTerminates(t *testing.T) {
	// Regression test for the deadlock-retry livelock: hierarchical
	// locking with multi-granule read/write transactions and synthetic
	// work must terminate (victims back off instead of instantly
	// re-grabbing their first granule).
	db := openBase(t, WithGranules(10), WithProtocol(Hierarchical), WithEscalationThreshold(16))
	done := make(chan error, 1)
	go func() {
		_, err := db.RunClosed(context.Background(), Workload{
			Workers: 8, TxnsPerWorker: 50, TransfersPerTxn: 2,
			ReadFraction: 0.2, WorkPerTxn: 20000, Seed: 1,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("hierarchical mixed workload hung (deadlock-retry livelock)")
	}
	if db.TotalBalance() != 1000*100 {
		t.Fatalf("conservation violated: %d", db.TotalBalance())
	}
}

func TestEscalationThresholdValidation(t *testing.T) {
	if _, err := Open(1000, WithEscalationThreshold(-1)); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestConservationConservativeCoarse(t *testing.T) { conservationStress(t, Conservative, 1) }
func TestConservationConservativeMid(t *testing.T)    { conservationStress(t, Conservative, 50) }
func TestConservationConservativeFine(t *testing.T)   { conservationStress(t, Conservative, 1000) }
func TestConservationClaimAsNeededCoarse(t *testing.T) {
	conservationStress(t, ClaimAsNeeded, 1)
}
func TestConservationClaimAsNeededMid(t *testing.T)  { conservationStress(t, ClaimAsNeeded, 50) }
func TestConservationClaimAsNeededFine(t *testing.T) { conservationStress(t, ClaimAsNeeded, 1000) }

func TestConservativeNeverDeadlocks(t *testing.T) {
	db := openBase(t, WithGranules(10)) // high collision probability
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Opposite lock orders on purpose.
				a, b := (w+i)%1000, (w*7+i*3)%1000
				t1 := Transfer(a, b, 1)
				if w%2 == 0 {
					t1 = Transfer(b, a, 1)
				}
				if _, err := db.Execute(ctx, t1); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := db.Stats(); s.Lock.Deadlocks != 0 || s.Restarts != 0 {
		t.Fatalf("conservative protocol deadlocked: %+v", s)
	}
}

func TestClaimAsNeededDetectsAndRetries(t *testing.T) {
	// Two granules, opposite acquisition orders, heavy concurrency:
	// deadlocks are essentially guaranteed and must be retried through.
	db := mustOpen(t, 100, WithNodes(2), WithGranules(2), WithProtocol(ClaimAsNeeded), WithInitialValue(100))
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var txn Txn
				if w%2 == 0 {
					txn = Transfer(10, 60, 1) // granule 0 then 1
				} else {
					txn = Transfer(60, 10, 1) // granule 1 then 0
				}
				if _, err := db.Execute(ctx, txn); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if db.TotalBalance() != 100*100 {
		t.Fatalf("conservation violated: %d", db.TotalBalance())
	}
	if s := db.Stats(); s.Restarts == 0 {
		t.Log("warning: no deadlocks observed (scheduling-dependent); invariants still verified")
	}
}

func TestFullReadTxnSeesConsistentSnapshot(t *testing.T) {
	// Concurrent transfers plus full-database read transactions: every
	// isolated read must see exactly the invariant total.
	db := openBase(t, WithGranules(20))
	want := db.TotalBalance()
	ctx := context.Background()
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Execute(ctx, Transfer((w+i)%1000, (w*3+i*11+1)%1000, 3)); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	full := db.FullReadTxn()
	for i := 0; i < 20; i++ {
		sum, err := db.Execute(ctx, full)
		if err != nil {
			t.Fatalf("full read: %v", err)
		}
		if sum != want {
			t.Fatalf("snapshot %d saw total %d, want %d (isolation broken)", i, sum, want)
		}
	}
	close(stop)
	writers.Wait()
	if got := db.TotalBalance(); got != want {
		t.Fatalf("final conservation: %d, want %d", got, want)
	}
}

func TestProtocolNames(t *testing.T) {
	// The constants are registry names: the engine accepts each one.
	for _, p := range []Protocol{Conservative, ClaimAsNeeded, Hierarchical, WoundWait, WaitDie, Optimistic} {
		if _, err := Open(10, WithProtocol(p)); err != nil {
			t.Errorf("Open with %q: %v", p, err)
		}
	}
	if Conservative != "conservative" || ClaimAsNeeded != "claim-as-needed" {
		t.Fatal("protocol names")
	}
}

// TestExecuteAllocationFree pins the engine's share of a transaction
// that meets no conflict under the conservative protocol at zero heap
// objects: the granule requests and the attempt's cc.Tx ride in the
// pooled lockScratch, and the lock table's batch claim allocates nothing
// (lockmgr's TestBatchClaimAllocationFree). The other protocols keep
// per-attempt state of their own; theirs is reported, not pinned.
func TestExecuteAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	ctx := context.Background()
	txn := Txn{Ops: []Op{{Entity: 3, Delta: 1}, {Entity: 410}, {Entity: 411, Delta: -1}, {Entity: 980}}, Work: 10}
	for _, name := range cc.Names() {
		db := openBase(t, WithProtocol(Protocol(name)))
		run := func() {
			if _, err := db.Execute(ctx, txn); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			run() // make the granule records, fill the pools
		}
		avg := testing.AllocsPerRun(1000, run)
		t.Logf("%-16s %v allocations per uncontended Execute", name, avg)
		if Protocol(name) == Conservative && avg != 0 {
			t.Errorf("conservative: %v allocations per uncontended Execute, want 0", avg)
		}
		db.Close()
	}
}
