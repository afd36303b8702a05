package lockmgr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/rng"
)

// The verdicts of AcquireAged, one schedule each. Age is the TxnID:
// txn 1 is older than txn 5. None of them may touch the waits-for
// detector.

// park starts an AcquireAged that is expected to wait, and returns the
// channel its outcome arrives on.
func park(tab *Table, txn TxnID, g Granule, mode Mode, wound bool) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tab.AcquireAged(context.Background(), txn, g, mode, wound) }()
	return done
}

// verdict waits for the outcome of a parked request, failing the test
// if none arrives in 5 s.
func verdict(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no verdict in 5s", what)
		return nil
	}
}

// aged is AcquireAged for a request that must not wait: a request that
// parks anyway gives up after 5 s with context.DeadlineExceeded.
func aged(tab *Table, txn TxnID, g Granule, mode Mode, wound bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return tab.AcquireAged(ctx, txn, g, mode, wound)
}

// mustAged acquires g for txn by age and fails the test on any verdict
// but a grant.
func mustAged(t *testing.T, tab *Table, txn TxnID, g Granule, mode Mode, wound bool) {
	t.Helper()
	if err := aged(tab, txn, g, mode, wound); err != nil {
		t.Fatalf("txn %d, granule %d: %v", txn, g, err)
	}
}

// noDetector fails the test if tab's waits-for graph has ever kept an
// edge: an age-judged table never needs one.
func noDetector(t *testing.T, tab *Table) {
	t.Helper()
	if edges := graphEdges(tab); edges != 0 {
		t.Fatalf("age-judged table has %d waits-for edges", edges)
	}
	if d := tab.Stats().Deadlocks; d != 0 {
		t.Fatalf("age-judged table counted %d deadlock victims", d)
	}
}

// forEachFast runs f twice, each time on a fresh table. The subtest
// names are historical: fast=true and fast=false once chose whether the
// table had a lock-free fast path, which it no longer has.
func forEachFast(t *testing.T, f func(t *testing.T, tab *Table)) {
	for _, fast := range []bool{true, false} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			tab := NewTable()
			f(t, tab)
			noDetector(t, tab)
		})
	}
}

// A wounded holder that is parked loses its wait at once, and the wound
// settles the queue it left: the request parked only behind it is
// granted then, not at the victim's release.
func TestWoundParkedHolder(t *testing.T) {
	forEachFast(t, func(t *testing.T, tab *Table) {
		const g1, g2 = 1, 2
		mustAged(t, tab, 3, g2, ModeShared, true)
		mustAged(t, tab, 5, g1, ModeExclusive, true)
		victim := park(tab, 5, g2, ModeExclusive, true) // younger than holder 3: waits
		waitParked(t, tab, 1)
		behind := park(tab, 7, g2, ModeShared, true) // compatible with 3, queued behind 5
		waitParked(t, tab, 2)
		noDetector(t, tab)

		older := park(tab, 1, g1, ModeExclusive, true) // wounds 5, then waits for its release
		if err := verdict(t, "parked victim", victim); err != ErrWounded {
			t.Fatalf("parked victim: err = %v, want ErrWounded", err)
		}
		granted(t, "txn 7, queued behind the wounded request", behind)
		waitParked(t, tab, 1)
		noDetector(t, tab)

		tab.ReleaseAll(5)
		granted(t, "txn 1, the wounding request", older)
		for _, txn := range []TxnID{1, 3, 7} {
			tab.ReleaseAll(txn)
		}
		if n := tab.HoldersCount(); n != 0 {
			t.Fatalf("%d holders left", n)
		}
	})
}

// A younger request queued ahead is a blocker too: wound-wait wounds it
// rather than let an older request wait behind it, and the wounding
// request waits for the older holder alone.
func TestWoundWaitWoundsYoungerQueuedAhead(t *testing.T) {
	forEachFast(t, func(t *testing.T, tab *Table) {
		mustAged(t, tab, 2, 1, ModeExclusive, true)
		young := park(tab, 7, 1, ModeExclusive, true) // younger than holder 2: waits
		waitParked(t, tab, 1)
		older := park(tab, 3, 1, ModeShared, true) // wounds 7, waits for 2
		if err := verdict(t, "younger request queued ahead", young); err != ErrWounded {
			t.Fatalf("younger request queued ahead: err = %v, want ErrWounded", err)
		}
		waitParked(t, tab, 1)
		tab.ReleaseAll(2)
		granted(t, "txn 3", older)
		tab.ReleaseAll(3)
		tab.ReleaseAll(7)
	})
}

// A wounded holder that is not parked is marked: its next request that
// needs a grant fails, on a free granule too, while a lock it already
// holds is still its own. The release clears the wound, so the retry
// under the same id proceeds.
func TestWoundUnparkedHolder(t *testing.T) {
	forEachFast(t, func(t *testing.T, tab *Table) {
		const g1, gFree, gShared = 1, 2, 3
		mustAged(t, tab, 9, gShared, ModeShared, true)
		mustAged(t, tab, 5, g1, ModeExclusive, true)
		older := park(tab, 1, g1, ModeExclusive, true) // wounds 5, then waits for it
		waitParked(t, tab, 1)

		if err := aged(tab, 5, gFree, ModeExclusive, true); err != ErrWounded {
			t.Fatalf("request on a free granule: err = %v, want ErrWounded", err)
		}
		if err := aged(tab, 5, gShared, ModeShared, true); err != ErrWounded {
			t.Fatalf("request a shared holder would grant: err = %v, want ErrWounded", err)
		}
		mustAged(t, tab, 5, g1, ModeExclusive, true) // already held: nothing to grant

		tab.ReleaseAll(5)
		granted(t, "txn 1, the wounding request", older)
		mustAged(t, tab, 5, gFree, ModeExclusive, true) // the retry, same age
		for _, txn := range []TxnID{1, 5, 9} {
			tab.ReleaseAll(txn)
		}
	})
}

// A wounded holder that never asks for another lock commits untouched:
// its release hands the granule on and leaves nothing behind.
func TestWoundedHolderReleasesCleanly(t *testing.T) {
	forEachFast(t, func(t *testing.T, tab *Table) {
		mustAged(t, tab, 5, 1, ModeExclusive, true)
		mustAged(t, tab, 5, 2, ModeExclusive, true)
		older := park(tab, 1, 1, ModeExclusive, true)
		waitParked(t, tab, 1)
		if tab.HeldBy(5) != 2 {
			t.Fatalf("the wound took locks from its victim: holds %d", tab.HeldBy(5))
		}
		tab.ReleaseAll(5)
		granted(t, "txn 1", older)
		tab.ReleaseAll(1)
		if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h+g+w != 0 {
			t.Fatalf("after release: %d holders, %d locked granules, %d waiters", h, g, w)
		}
		tab.mu.Lock()
		left := len(tab.held)
		tab.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d hold-set records survive the release", left)
		}
	})
}

// wait-die refuses to wait for an older transaction, whether it holds
// the granule or is queued ahead — the no-overtaking rule makes a
// queued request a blocker too — and lets an older request wait for a
// younger one.
func TestWaitDieDiesAgainstOlderBlocker(t *testing.T) {
	forEachFast(t, func(t *testing.T, tab *Table) {
		const gHeld, gQueued = 1, 2
		mustAged(t, tab, 1, gHeld, ModeExclusive, false)
		if err := aged(tab, 5, gHeld, ModeExclusive, false); err != ErrDie {
			t.Fatalf("against an older holder: err = %v, want ErrDie", err)
		}

		mustAged(t, tab, 9, gQueued, ModeExclusive, false)
		older := park(tab, 3, gQueued, ModeExclusive, false) // older than holder 9: waits
		waitParked(t, tab, 1)
		// Holder 9 is younger, but 3 is queued ahead and older.
		if err := aged(tab, 5, gQueued, ModeShared, false); err != ErrDie {
			t.Fatalf("against an older request queued ahead: err = %v, want ErrDie", err)
		}
		if s := tab.Stats(); s.Blocks != 1 {
			t.Fatalf("blocks = %d, want 1: a request that dies never parks", s.Blocks)
		}
		tab.ReleaseAll(9)
		granted(t, "txn 3", older)
		for _, txn := range []TxnID{1, 3, 5} {
			tab.ReleaseAll(txn)
		}
	})
}

// A parked request is judged again when an upgrade hands it a new
// blocker: under wait-die an older upgrader makes it die, under
// wound-wait a younger upgrader is wounded.
func TestAgeRejudgedAfterUpgrade(t *testing.T) {
	t.Run("wait-die", func(t *testing.T) {
		forEachFast(t, func(t *testing.T, tab *Table) {
			mustAged(t, tab, 2, 1, ModeIS, false)
			mustAged(t, tab, 9, 1, ModeIX, false)
			young := park(tab, 5, 1, ModeShared, false) // conflicts only with 9, younger: waits
			waitParked(t, tab, 1)
			mustAged(t, tab, 2, 1, ModeIX, false) // IS→IX beside 9's IX: now conflicts with 5
			if err := verdict(t, "parked request", young); err != ErrDie {
				t.Fatalf("parked request with a new older blocker: err = %v, want ErrDie", err)
			}
			for _, txn := range []TxnID{2, 5, 9} {
				tab.ReleaseAll(txn)
			}
		})
	})
	t.Run("wound-wait", func(t *testing.T) {
		forEachFast(t, func(t *testing.T, tab *Table) {
			mustAged(t, tab, 9, 1, ModeIS, true)
			mustAged(t, tab, 4, 1, ModeIX, true)
			older := park(tab, 1, 1, ModeShared, true) // wounds 4, waits for it
			waitParked(t, tab, 1)
			mustAged(t, tab, 9, 1, ModeIX, true) // IS→IX: a new, younger blocker of 1
			if err := aged(tab, 9, 2, ModeExclusive, true); err != ErrWounded {
				t.Fatalf("upgrader's next request: err = %v, want ErrWounded", err)
			}
			tab.ReleaseAll(4)
			tab.ReleaseAll(9)
			granted(t, "txn 1", older)
			tab.ReleaseAll(1)
		})
	})
}

// Concurrent transactions under each policy, on few granules, in mixed
// modes and with upgrades, so that wounds, deaths, re-judged waiters and
// settles race each other: every transaction must finish without a
// detector, a lost wake-up or a broken exclusion, retrying under its
// first id so that it ages, and the table must end empty. Run it under
// -race at several -cpu values.
func TestAgedConcurrentStress(t *testing.T) {
	for _, wound := range []bool{true, false} {
		t.Run(fmt.Sprintf("wound=%v", wound), func(t *testing.T) {
			const granules, workers, iters = 6, 8, 150
			tab := NewTable()
			excl := newExclusion(t, granules)
			var ids atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					src := rng.New(uint64(w + 1))
					for i := 0; i < iters && !t.Failed(); i++ {
						txn := TxnID(ids.Add(1))
						rs := make([]Request, 1+src.Intn(4))
						for i, g := range src.Subset(len(rs), granules) {
							rs[i] = Request{Granule: Granule(g), Mode: Mode(src.Intn(2))}
						}
						if src.Intn(3) == 0 { // upgrade the first granule last
							rs = append(rs, Request{Granule: rs[0].Granule, Mode: ModeExclusive})
						}
					retry:
						held := map[Granule]Mode{}
						for _, r := range rs {
							err := tab.AcquireAged(context.Background(), txn, r.Granule, r.Mode, wound)
							if err == ErrWounded || err == ErrDie {
								// Back off before the retry, as the engine does: a
								// loser that restarts at once can hold the CPU
								// against the older transaction it died for.
								tab.ReleaseAll(txn)
								time.Sleep(time.Duration(1+src.Intn(100)) * time.Microsecond)
								goto retry
							}
							if err != nil {
								t.Errorf("txn %d: %v", txn, err)
								return
							}
							if have, ok := held[r.Granule]; ok {
								held[r.Granule] = joinMode(have, r.Mode)
							} else {
								held[r.Granule] = r.Mode
							}
						}
						for g, m := range held {
							excl.enter(txn, g, m)
						}
						time.Sleep(time.Microsecond)
						for g, m := range held {
							excl.leave(txn, g, m)
						}
						tab.ReleaseAll(txn)
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("age-judged stress hung with %d requests parked", tab.WaitersCount())
			}
			noDetector(t, tab)
			if h, g, w := tab.HoldersCount(), tab.LockedGranules(), tab.WaitersCount(); h != 0 || g != 0 || w != 0 {
				t.Fatalf("%d holders, %d locked granules, %d waiters left", h, g, w)
			}
		})
	}
}
