package lockmgr

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestAcquireAllAsync pins the continuation form of a conservative
// claim: decided at once exactly as TryAcquireAll decides, otherwise
// parked and resolved exactly once — by the release that grants it,
// with delivery left to the caller of ReleaseAllDeferred, or never,
// once Withdraw took it back.
func TestAcquireAllAsync(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tab := NewTable(WithShards(shards))
		x := func(gs ...Granule) []Request {
			out := make([]Request, len(gs))
			for i, g := range gs {
				out[i] = Request{Granule: g, Mode: ModeExclusive}
			}
			return out
		}
		calls, outcome := 0, error(nil)
		resolve := func(err error) { calls++; outcome = err }

		granted, parked, err := tab.AcquireAllAsync(1, x(1, 2), resolve)
		if !granted || parked != nil || err != nil {
			t.Fatalf("free claim: granted %v parked %v err %v", granted, parked, err)
		}
		if _, _, err := tab.AcquireAllAsync(1, x(3), resolve); !errors.Is(err, ErrAlreadyHolds) {
			t.Fatalf("second claim of a holder: %v", err)
		}
		granted, parked, err = tab.AcquireAllAsync(2, x(2, 3), resolve)
		if granted || parked == nil || err != nil {
			t.Fatalf("blocked claim: granted %v parked %v err %v", granted, parked, err)
		}
		if w := tab.WaitersCount(); w != 1 {
			t.Fatalf("%d waiters", w)
		}

		resolved := tab.ReleaseAllDeferred(1, nil)
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
		resolved[0].Deliver()
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
	}
}

// TestReleaseReevaluatesOnlyNamedClaims: a release resolves — and, off
// StrictFIFO, so much as looks at — only parked claims naming a granule
// it freed, however many other claims share the stripe. The claim on
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
		_, p, err := tab.AcquireAllAsync(txn, []Request{{Granule: g, Mode: ModeExclusive}}, func(err error) {
			if err != nil {
				t.Errorf("txn %d: %v", txn, err)
			}
			got = append(got, txn)
		})
		if p == nil || err != nil {
			t.Fatalf("txn %d did not park: %v", txn, err)
		}
		return p
	}
	park(10, 1)
	park(20, 2)
	if r := tab.ReleaseAllDeferred(1, nil); len(r) != 0 {
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
// engine does on every claim at ltot 1 — allocates its waiter and the
// channel it sleeps on (two objects: a buffered channel of interface
// values keeps its buffer apart), and its release, which re-evaluates
// the parked claim from stack buffers, nothing; the continuation form
// added no allocation to either.
func TestBlockingClaimAllocations(t *testing.T) {
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
	if avg := testing.AllocsPerRun(200, cycle); avg > 3 {
		t.Fatalf("%v allocations per parked claim and its releases, want at most 3", avg)
	}
	close(kick)
	<-done
}
