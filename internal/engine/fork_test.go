package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/engine/cc"
	"granulock/internal/race"
)

// TestPlanSplit pins how a transaction's work is split: node n's share
// is ⌊Work·cₙ/ops⌋, the rounding remainder and every share below
// forkMinShare fold into the largest, the shares sum to Work and go
// largest first, the degree is min(shares, free processors), and there
// is no fork (degree below 2) when there is nothing to split or nothing
// to run it on.
func TestPlanSplit(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		txn    Txn
		free   int   // processors free for the transaction
		degree int   // below 2: no fork
		shares []int // in claim order; checked only for a fork
	}{
		{"remainder to the largest", 4, Txn{Ops: ops(0, 1, 2), Work: 10000}, 4, 3, []int{3334, 3333, 3333}},
		{"remainder to a largest not on node 0", 4, Txn{Ops: ops(6, 1, 3), Work: 11000}, 4, 3, []int{3668, 3666, 3666}},
		{"by op count", 4, Txn{Ops: ops(2, 1, 5, 9), Work: 10000}, 2, 2, []int{7500, 2500}},
		{"repeated entity counts twice", 2, Txn{Ops: ops(0, 1, 1), Work: 9000}, 4, 2, []int{6000, 3000}},
		{"a small share folds into the largest", 4, Txn{Ops: ops(0, 1, 5, 9, 2, 6), Work: 5400}, 2, 2, []int{3600, 1800}},
		{"every node", 4, Txn{Ops: ops(0, 1, 2, 3, 4, 5, 6, 7), Work: 16000}, 2, 2, []int{4000, 4000, 4000, 4000}},
		{"degree capped by shares", 4, Txn{Ops: ops(0, 1, 2, 3, 4, 5, 6, 7), Work: 16000}, 8, 4, []int{4000, 4000, 4000, 4000}},
		{"no share big enough to fork", 4, Txn{Ops: ops(0, 4, 8, 1), Work: 3000}, 2, 0, nil},
		{"work 0", 4, Txn{Ops: ops(0, 1, 2), Work: 0}, 2, 0, nil},
		{"one node", 1, Txn{Ops: ops(0, 1, 2), Work: 10000}, 2, 0, nil},
		{"a transaction on one node", 4, Txn{Ops: ops(1, 5, 9), Work: 10000}, 2, 0, nil},
		{"one processor", 4, Txn{Ops: ops(0, 1, 2), Work: 10000}, 1, 1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := mustOpen(t, 16, WithNodes(c.nodes))
			fakeHelpers(db, c.free)
			db.helpers.working.Add(1) // the caller
			sc := new(lockScratch)
			degree := db.plan(sc, c.txn)
			if degree != c.degree {
				t.Fatalf("degree %d, want %d", degree, c.degree)
			}
			if degree < 2 {
				return
			}
			got := slices.Clone(sc.fork.work)
			slices.Reverse(got) // claims take the last share first
			if !slices.Equal(got, c.shares) {
				t.Errorf("shares %v, want %v", got, c.shares)
			}
			sum := 0
			for _, w := range got {
				sum += w
			}
			if sum != c.txn.Work {
				t.Errorf("shares sum to %d, want Work %d", sum, c.txn.Work)
			}
		})
	}
}

// ops is a transaction's ops over entities, each writing +1.
func ops(entities ...int) []Op {
	out := make([]Op, len(entities))
	for i, e := range entities {
		out[i] = Op{Entity: e, Delta: 1}
	}
	return out
}

// fakeHelpers makes db's helpers look started on procs processors with
// no helper goroutine behind them: every share is left to its caller.
func fakeHelpers(db *DB, procs int) {
	h := &db.helpers
	h.procs = procs
	h.slots = make([]atomic.Pointer[fork], max(1, procs/2))
	h.quit = make(chan struct{})
	h.state.Store(helpersRunning)
}

// TestFreeProcessorsCountRunners: a forked transaction holds one
// processor per runner, not one per transaction. At 4 processors two
// degree-2 forks — each a working caller and a helper holding a share —
// leave none free, and the next transaction runs inline; counting
// transactions would have left it two.
func TestFreeProcessorsCountRunners(t *testing.T) {
	db := openBase(t)
	fakeHelpers(db, 4)
	h := &db.helpers
	txn := Txn{Ops: ops(0, 1), Work: 4000}
	for n := range 2 {
		sc := new(lockScratch)
		h.working.Add(1)
		if degree := db.plan(sc, txn); degree != 2 {
			t.Fatalf("fork %d: degree %d, want 2", n+1, degree)
		}
		gen := sc.fork.post()
		if _, ok := sc.fork.claim(gen); !ok { // the caller's share
			t.Fatal("the caller claimed no share")
		}
		if _, ok := h.take(&sc.fork, gen); !ok { // a helper's
			t.Fatal("a helper took no share with a processor free")
		}
	}
	h.working.Add(1)
	if degree := db.plan(new(lockScratch), txn); degree >= 2 {
		t.Fatalf("degree %d with two degree-2 forks running on 4 processors, want no fork", degree)
	}
	sc := new(lockScratch)
	sc.fork.work = []int{2000, 2000}
	if _, ok := h.take(&sc.fork, sc.fork.post()); ok {
		t.Fatal("a helper took a share with no processor free")
	}
}

// TestStaleClaimWordFails: a fork record is reused once its join
// returns, and a helper still holding the previous generation cannot
// claim a share of the reuse, while a runner of the new generation
// takes its shares from the first.
func TestStaleClaimWordFails(t *testing.T) {
	f := new(fork)
	f.work = []int{1000, 2000}
	stale := f.post()
	for _, want := range []int{1, 0} {
		i, ok := f.claim(stale)
		if !ok || i != want {
			t.Fatalf("claim of the first generation: share %d, %v, want share %d", i, ok, want)
		}
		f.done.Add(1)
	}
	if _, ok := f.claim(stale); ok {
		t.Fatal("claimed a third share of a two-share fork")
	}
	f.work = []int{1000, 2000, 3000}
	gen := f.post()
	if gen == stale {
		t.Fatalf("the reuse kept generation %d", gen)
	}
	if i, ok := f.claim(stale); ok {
		t.Fatalf("a helper holding generation %d claimed share %d of generation %d", stale, i, gen)
	}
	for _, want := range []int{2, 1, 0} {
		if i, ok := f.claim(gen); !ok || i != want {
			t.Fatalf("claim of the reuse: share %d, %v, want share %d", i, ok, want)
		}
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

// helperGoroutines counts the goroutines running one of db's fork
// helpers. A traceback may mark the receiver it prints as possibly
// inaccurate with a "?".
func helperGoroutines(db *DB) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			stacks, frame := string(buf[:n]), fmt.Sprintf("engine.(*DB).helper(%p", db)
			return strings.Count(stacks, frame+")") + strings.Count(stacks, frame+"?)")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestCloseStopsNodeWorkers: the first transaction that forks starts
// GOMAXPROCS−1 helpers, Close stops them — the goroutine count returns
// to where it was before Open — and a transaction executed after Close
// runs its work inline.
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
	if db.helpers.state.Load() != helpersRunning {
		t.Fatal("a forked transaction started no helpers")
	}
	if got, want := helperGoroutines(db), runtime.GOMAXPROCS(0)-1; got != want {
		t.Fatalf("%d helpers, want GOMAXPROCS−1 = %d", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline)
	if got := helperGoroutines(db); got != 0 {
		t.Fatalf("%d helpers after Close", got)
	}
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

// TestCallerRunsUnclaimedShares: the caller runs every share no helper
// has claimed — here, with helpers that look started but none behind
// them, all of them — so a fork never waits on a helper to wake (nor on
// one Close has stopped), and it wakes none.
func TestCallerRunsUnclaimedShares(t *testing.T) {
	forkProcs(t)
	db := openBase(t)
	fakeHelpers(db, 2)
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
		t.Fatal("the fork waited on shares no helper claims")
	}
	if awake := db.helpers.awake.Load(); awake != 0 {
		t.Fatalf("%d helpers awake, want none", awake)
	}
	if got := helperGoroutines(db); got != 0 {
		t.Fatalf("%d helper goroutines, want none", got)
	}
}

// TestForkedExecuteAllocationFree extends TestExecuteAllocationFree,
// whose AllocsPerRun runs on one processor and so never forks, to the
// forked path: the fork record rides in the pooled lockScratch and is
// posted by pointer, so a forked conservative transaction allocates
// nothing once the helpers run.
func TestForkedExecuteAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	forkProcs(t)
	ctx := context.Background()
	db := openBase(t)
	defer db.Close()
	for i := 0; i < 16; i++ {
		if _, err := db.Execute(ctx, forkTxn); err != nil { // start the helpers, fill the pools
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
