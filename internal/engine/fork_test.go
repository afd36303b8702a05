package engine

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"granulock/internal/engine/cc"
	"granulock/internal/race"
)

// TestPlanSplit pins how a transaction's work is split over the nodes
// its ops touch: in proportion to each node's op count, the rounding
// remainder and any share below forkMinShare to the share the caller
// runs (its first op's node), and no fork at all when there is nothing
// to split or nothing to run it on.
func TestPlanSplit(t *testing.T) {
	ops := func(entities ...int) []Op {
		out := make([]Op, len(entities))
		for i, e := range entities {
			out[i] = Op{Entity: e, Delta: 1}
		}
		return out
	}
	cases := []struct {
		name   string
		nodes  int
		txn    Txn
		procs  int
		home   int
		shares []int // per node; nil when home is -1
	}{
		{"remainder to the caller", 4, Txn{Ops: ops(0, 1, 2), Work: 10000}, 2, 0, []int{3334, 3333, 3333, 0}},
		{"remainder to a caller not on node 0", 4, Txn{Ops: ops(6, 1, 3), Work: 11000}, 2, 2, []int{0, 3666, 3668, 3666}},
		{"by op count", 4, Txn{Ops: ops(1, 5, 9, 2), Work: 10000}, 2, 1, []int{0, 7500, 2500, 0}},
		{"repeated entity counts twice", 2, Txn{Ops: ops(1, 1, 0), Work: 9000}, 4, 1, []int{3000, 6000}},
		{"every node", 4, Txn{Ops: ops(0, 1, 2, 3, 4, 5, 6, 7), Work: 16000}, 8, 0, []int{4000, 4000, 4000, 4000}},
		{"a small share stays with the caller", 4, Txn{Ops: ops(0, 1, 5, 9, 13, 2), Work: 4500}, 2, 0, []int{1500, 3000, 0, 0}},
		{"no share big enough to fork", 4, Txn{Ops: ops(0, 4, 8, 1), Work: 3000}, 2, -1, nil},
		{"work 0", 4, Txn{Ops: ops(0, 1, 2), Work: 0}, 2, -1, nil},
		{"one node", 1, Txn{Ops: ops(0, 1, 2), Work: 10000}, 2, -1, nil},
		{"a transaction on one node", 4, Txn{Ops: ops(1, 5, 9), Work: 10000}, 2, -1, nil},
		{"one processor", 4, Txn{Ops: ops(0, 1, 2), Work: 10000}, 1, -1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := mustOpen(t, 16, WithNodes(c.nodes))
			sc := new(lockScratch)
			home := db.plan(sc, c.txn, c.procs)
			if home != c.home {
				t.Fatalf("caller's node %d, want %d", home, c.home)
			}
			if home < 0 {
				return
			}
			got := make([]int, c.nodes)
			sum := 0
			for n := range got {
				got[n] = sc.shares[n].work
				sum += got[n]
			}
			if !slices.Equal(got, c.shares) {
				t.Errorf("shares %v, want %v", got, c.shares)
			}
			if sum != c.txn.Work {
				t.Errorf("shares sum to %d, want Work %d", sum, c.txn.Work)
			}
		})
	}
}

// forkProcs raises GOMAXPROCS to 2 for the test when it is lower, so a
// multi-node transaction forks.
func forkProcs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// forkTxn touches three of openBase's four nodes.
var forkTxn = Txn{Ops: []Op{{Entity: 3, Delta: 1}, {Entity: 410}, {Entity: 411, Delta: -1}, {Entity: 980}}, Work: 12000}

// TestCloseStopsNodeWorkers: the first transaction that forks starts one
// executor per node, Close stops them — the goroutine count returns to
// where it was before Open — and a transaction executed after Close runs
// its work inline.
func TestCloseStopsNodeWorkers(t *testing.T) {
	forkProcs(t)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	db := openBase(t)
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("Open started %d goroutines, want none before the first fork", got-baseline)
	}
	if _, err := db.Execute(ctx, forkTxn); err != nil {
		t.Fatal(err)
	}
	if db.execs.state.Load() != execRunning {
		t.Fatal("a forked transaction started no executors")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline)
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	want := db.TotalBalance()
	if _, err := db.Execute(ctx, forkTxn); err != nil {
		t.Fatalf("Execute after Close: %v", err)
	}
	if got := db.TotalBalance(); got != want {
		t.Fatalf("balance %d after a transfer, want %d", got, want)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("Execute after Close left %d goroutines, want the baseline %d", got, baseline)
	}
}

// awaitGoroutines waits for the goroutine count to return to baseline:
// a goroutine that has signalled its exit may not have left yet. (One
// an earlier test left exiting may leave meanwhile, so below the
// baseline counts as back.)
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForkRacesClose: transactions forking from several goroutines at
// once, under every registered protocol, and a Close in the middle of
// them. Every transaction commits — a share queued when Close stopped
// the executors is run by its caller — the balance is conserved, and no
// executor outlives Close. Run under -race, this is the fork's
// isolation check (TestBalanceInvariantAllProtocols' transactions work
// too little to fork).
func TestForkRacesClose(t *testing.T) {
	forkProcs(t)
	for _, name := range cc.Names() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			baseline := runtime.NumGoroutine()
			db := openBase(t, WithProtocol(Protocol(name)))
			want := db.TotalBalance()
			const workers, txns = 4, 200
			var done, halfway sync.WaitGroup
			halfway.Add(workers)
			for w := 0; w < workers; w++ {
				done.Add(1)
				go func() {
					defer done.Done()
					var once sync.Once
					defer once.Do(halfway.Done)
					for i := 0; i < txns; i++ {
						if i == txns/2 {
							once.Do(halfway.Done)
						}
						from, to := (w*31+i)%1000, (w*17+i*7+1)%1000
						if _, err := db.Execute(ctx, Txn{Ops: Transfer(from, to, 1).Ops, Work: 8000}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			halfway.Wait()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			done.Wait()
			if got := db.TotalBalance(); got != want {
				t.Fatalf("balance %d, want %d", got, want)
			}
			if got := db.Stats().Committed; got != workers*txns {
				t.Fatalf("committed %d, want %d", got, workers*txns)
			}
			awaitGoroutines(t, baseline)
		})
	}
}

// TestCallerRunsUnclaimedShares: the join runs every share no executor
// has claimed — here, with a queue no executor reads, all of them — so a
// fork never waits on a queue (nor on an executor Close has stopped).
func TestCallerRunsUnclaimedShares(t *testing.T) {
	forkProcs(t)
	db := openBase(t)
	db.execs.queue = make(chan *share, forkQueue)
	db.execs.state.Store(execRunning)
	done := make(chan error, 1)
	go func() {
		_, err := db.Execute(context.Background(), forkTxn)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the fork waited on shares no executor claims")
	}
}

// TestForkedExecuteAllocationFree extends TestExecuteAllocationFree,
// whose AllocsPerRun runs on one processor and so never forks, to the
// forked path: the shares ride in the pooled lockScratch and queue by
// pointer, so a forked conservative transaction allocates nothing once
// the executors run.
func TestForkedExecuteAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	forkProcs(t)
	ctx := context.Background()
	db := openBase(t)
	defer db.Close()
	for i := 0; i < 16; i++ {
		if _, err := db.Execute(ctx, forkTxn); err != nil { // start the executors, fill the pools
			t.Fatal(err)
		}
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := db.Execute(ctx, forkTxn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Averaged and truncated as testing.AllocsPerRun does: the odd
	// allocation of the process's other goroutines is not the fork's.
	if avg := (after.Mallocs - before.Mallocs) / runs; avg != 0 {
		t.Errorf("%d allocations per forked Execute, want 0", avg)
	}
}
