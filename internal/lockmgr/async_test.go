package lockmgr

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/race"
	"granulock/internal/rng"
)

// TestAcquireAllAsync pins the continuation form of a conservative
// claim: decided at once exactly as TryAcquireAll decides, otherwise
// parked in the caller's record and resolved exactly once — by the
// release that grants it, with delivery left to whoever takes it from
// the core, or never, once Withdraw took it back — and the one
// record serves claim after claim, of any size, without a new object.
func TestAcquireAllAsync(t *testing.T) {
	tab := NewTable()
	x := func(gs ...Granule) []Request {
		out := make([]Request, len(gs))
		for i, g := range gs {
			out[i] = Request{Granule: g, Mode: ModeExclusive}
		}
		return out
	}
	calls, outcome := 0, error(nil)
	resolve := &ParkedClaim{Resolve: func(err error) { calls++; outcome = err }}

	granted, parked, err := tab.AcquireAllAsync(1, x(1, 2), resolve)
	if !granted || parked != nil || err != nil {
		t.Fatalf("free claim: granted %v parked %v err %v", granted, parked, err)
	}
	if _, _, err := tab.AcquireAllAsync(1, x(3), resolve); !errors.Is(err, ErrAlreadyHolds) {
		t.Fatalf("second claim of a holder: %v", err)
	}
	granted, parked, err = tab.AcquireAllAsync(2, x(2, 3), resolve)
	if granted || parked != resolve || err != nil {
		t.Fatalf("blocked claim: granted %v parked %v err %v", granted, parked, err)
	}
	if w := tab.WaitersCount(); w != 1 {
		t.Fatalf("%d waiters", w)
	}

	tab.mu.Lock()
	tab.release(1)
	resolved := tab.take(nil)
	tab.mu.Unlock()
	if len(resolved) != 1 || resolved[0] != parked {
		t.Fatalf("release resolved %v, want the parked claim", resolved)
	}
	if calls != 0 {
		t.Fatal("outcome delivered before the caller asked")
	}
	if tab.HeldBy(2) != 2 || tab.WaitersCount() != 0 {
		t.Fatalf("after the release txn 2 holds %d, %d waiters", tab.HeldBy(2), tab.WaitersCount())
	}
	if tab.Withdraw(parked) {
		t.Fatal("withdrew a claim a release had resolved")
	}
	resolved[0].deliver()
	if calls != 1 || outcome != nil {
		t.Fatalf("delivered %d times, outcome %v", calls, outcome)
	}

	// A withdrawn claim is never resolved.
	_, parked, _ = tab.AcquireAllAsync(3, x(3), resolve)
	if parked == nil || !tab.Withdraw(parked) || tab.Withdraw(parked) {
		t.Fatal("withdraw of a parked claim should succeed exactly once")
	}
	tab.ReleaseAll(2)
	if calls != 1 || tab.HeldBy(3) != 0 || tab.HoldersCount() != 0 || tab.WaitersCount() != 0 {
		t.Fatalf("withdrawn claim resolved: %d calls, txn 3 holds %d", calls, tab.HeldBy(3))
	}

	// The same record, claim after claim: granted by a release on
	// even rounds, withdrawn on odd ones, with a claim past the
	// record's inline arrays every seventh round. The table's copy is
	// the claim's own — the caller's slice is overwritten at once.
	held, claim, wide := x(5), x(5), x(5, 6, 7, 8, 9, 10)
	calls = 0
	cycle := func(round int) {
		if ok, err := tab.TryAcquireAll(100, held); !ok || err != nil {
			t.Fatal(ok, err)
		}
		reqs := claim
		if round%7 == 0 {
			reqs = wide
		}
		if _, parked, err := tab.AcquireAllAsync(200, reqs, resolve); parked != resolve || err != nil {
			t.Fatalf("round %d: parked %v err %v", round, parked, err)
		}
		want := len(reqs)
		reqs[0].Granule = 99
		if round%2 == 1 {
			if !tab.Withdraw(resolve) {
				t.Fatalf("round %d: claim not withdrawn", round)
			}
			want = 0
		}
		tab.ReleaseAll(100)
		if got := resolve.Requests(); len(got) != len(reqs) || got[0].Granule != 5 {
			t.Fatalf("round %d: the record holds %v", round, got)
		}
		reqs[0].Granule = 5
		if tab.HeldBy(200) != want || tab.WaitersCount() != 0 {
			t.Fatalf("round %d: txn 200 holds %d, want %d; %d waiters", round, tab.HeldBy(200), want, tab.WaitersCount())
		}
		tab.ReleaseAll(200)
	}
	for round := 0; round < 1000; round++ {
		cycle(round)
	}
	if calls != 500 || outcome != nil {
		t.Fatalf("%d of 1000 claims resolved (outcome %v), want the 500 not withdrawn", calls, outcome)
	}
	round := 0
	if avg := testing.AllocsPerRun(100, func() { round++; cycle(round) }); avg != 0 {
		t.Fatalf("%v allocations per park and its ending in a reused record, want 0", avg)
	}
}

// TestReleaseReevaluatesOnlyNamedClaims: a release resolves — and so
// much as looks at — only parked claims naming a granule it freed,
// however many other claims are queued. The claim on
// the other granule stays parked, promotion of the freed granule still
// respects the claim that wants it, and ReleaseAll (plain) delivers by
// itself.
func TestReleaseReevaluatesOnlyNamedClaims(t *testing.T) {
	tab := NewTable()
	s := []Request{{Granule: 1, Mode: ModeShared}}
	// Shared holders keep both granules on the slow path.
	for txn, g := range map[TxnID]Granule{1: 1, 2: 1, 3: 2, 4: 2} {
		s[0].Granule = g
		if ok, err := tab.TryAcquireAll(txn, s); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}
	var got []TxnID
	park := func(txn TxnID, g Granule) *ParkedClaim {
		_, p, err := tab.AcquireAllAsync(txn, []Request{{Granule: g, Mode: ModeExclusive}}, &ParkedClaim{Resolve: func(err error) {
			if err != nil {
				t.Errorf("txn %d: %v", txn, err)
			}
			got = append(got, txn)
		}})
		if p == nil || err != nil {
			t.Fatalf("txn %d did not park: %v", txn, err)
		}
		return p
	}
	park(10, 1)
	park(20, 2)
	tab.mu.Lock()
	tab.release(1)
	r := tab.take(nil)
	tab.mu.Unlock()
	if len(r) != 0 {
		t.Fatalf("release of one of two readers resolved %d claims", len(r))
	}
	tab.ReleaseAll(2)
	if len(got) != 1 || got[0] != 10 || tab.WaitersCount() != 1 {
		t.Fatalf("freeing granule 1 resolved %v, %d still parked", got, tab.WaitersCount())
	}
	tab.ReleaseAll(3)
	tab.ReleaseAll(4)
	if len(got) != 2 || got[1] != 20 {
		t.Fatalf("freeing granule 2 resolved %v", got)
	}
	tab.ReleaseAll(10)
	tab.ReleaseAll(20)
	if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
		t.Fatalf("%d holders, %d locked granules, %d waiters left", h, g, w)
	}
}

// TestBlockingClaimAllocations: a blocking AcquireAll that parks — the
// engine does on every claim at ltot 1 — allocates nothing while the
// pool holds a record: the record carries the request copy and the
// channel the caller sleeps on, and the release that re-evaluates the
// parked claim works from the table's own scratch. What is left is the
// retirement of pooled records: a record and its channel per
// claimRecordUses blocked claims.
func TestBlockingClaimAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P, as testing.AllocsPerRun measures: Mallocs is process-wide, and
	// on several the parked caller wakes on another P than it took its
	// record on, whose pool then misses now and then (2 to 12 allocations
	// over a budget of 44 in most runs of this test alone).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tab := NewTable()
	ctx := context.Background()
	reqs := []Request{{Granule: 7, Mode: ModeExclusive}}
	kick := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range kick {
			for tab.WaitersCount() == 0 {
				runtime.Gosched()
			}
			tab.ReleaseAll(1)
		}
	}()
	cycle := func() {
		if ok, err := tab.TryAcquireAll(1, reqs); !ok || err != nil {
			t.Fatal(ok, err)
		}
		kick <- struct{}{}
		if err := tab.AcquireAll(ctx, 2, reqs); err != nil {
			t.Fatal(err)
		}
		tab.ReleaseAll(2)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	const cycles = 20 * claimRecordUses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got, retired := after.Mallocs-before.Mallocs, uint64(cycles/claimRecordUses+1); got > 2*retired+2 {
		t.Fatalf("%d allocations in %d parked claims and their releases, want the %d retired records' 2 each", got, cycles, retired)
	}
	close(kick)
	<-done
}

// TestPooledClaimRecordsUnderChurn races what the record pool makes
// dangerous: blocking claims that give up on a deadline — their records
// go back to the pool at once and park the next claim — against
// releases that resolve parked claims and hand their records back. A
// release looks at a claim only under the latch that guards its queue,
// and a record is the owner's again once its outcome is delivered or it
// is withdrawn: under -race a record re-parked while the table still
// uses it is a reported data race, and a claim granted twice shows up
// as a broken exclusion below.
func TestPooledClaimRecordsUnderChurn(t *testing.T) {
	const workers, rounds, granules = 8, 400, 3
	tab := NewTable()
	var busy [granules]atomic.Int32
	var granted, gaveUp atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(uint64(w + 1))
			for i := 0; i < rounds; i++ {
				txn := TxnID(w*rounds + i + 1)
				reqs := []Request{{Granule: Granule(src.Intn(granules)), Mode: ModeExclusive}}
				if g := Granule(src.Intn(granules)); g > reqs[0].Granule {
					reqs = append(reqs, Request{Granule: g, Mode: ModeExclusive})
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(src.Intn(150))*time.Microsecond)
				err := tab.AcquireAll(ctx, txn, reqs)
				cancel()
				if err != nil {
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("txn %d: %v", txn, err)
					}
					gaveUp.Add(1)
					continue
				}
				granted.Add(1)
				for _, r := range reqs {
					if !busy[r.Granule].CompareAndSwap(0, 1) {
						t.Errorf("txn %d granted granule %d while another transaction holds it", txn, r.Granule)
					}
				}
				runtime.Gosched()
				for _, r := range reqs {
					busy[r.Granule].Store(0)
				}
				tab.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	if h, w := tab.HoldersCount(), tab.WaitersCount(); h != 0 || w != 0 {
		t.Fatalf("%d holders, %d waiters left", h, w)
	}
	if granted.Load() == 0 || gaveUp.Load() == 0 {
		t.Fatalf("%d claims granted, %d gave up: the race never happened", granted.Load(), gaveUp.Load())
	}
}
