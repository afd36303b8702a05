package lockmgr

import (
	"context"
	"testing"
)

// The mode-merge audit: the merge of two lock modes held or requested by
// one transaction must be the lattice join — the weakest mode at least as
// strong as both — not merely whichever compares greater. Over S and X
// alone join and max coincide; over the five modes they do not (S ⊔ IX =
// SIX, while max says S or IX depending on declaration order). These
// tables pin every pair.

func TestJoinModeAllPairs(t *testing.T) {
	const (
		S   = ModeShared
		X   = ModeExclusive
		IS  = ModeIS
		IX  = ModeIX
		SIX = ModeSIX
	)
	want := [5][5]Mode{
		//     S    X  IS   IX   SIX
		S:   {S, X, S, SIX, SIX},
		X:   {X, X, X, X, X},
		IS:  {S, X, IS, IX, SIX},
		IX:  {SIX, X, IX, IX, SIX},
		SIX: {SIX, X, SIX, SIX, SIX},
	}
	for _, a := range allModes {
		for _, b := range allModes {
			if got := joinMode(a, b); got != want[a][b] {
				t.Errorf("joinMode(%v, %v) = %v, want %v", a, b, got, want[a][b])
			}
		}
	}
}

// TestJoinModeIsAJoin checks the algebraic laws directly: commutative,
// idempotent, an upper bound of both arguments, and the least one.
func TestJoinModeIsAJoin(t *testing.T) {
	for _, a := range allModes {
		for _, b := range allModes {
			j := joinMode(a, b)
			if j != joinMode(b, a) {
				t.Errorf("joinMode not commutative on (%v, %v)", a, b)
			}
			if !covers(j, a) || !covers(j, b) {
				t.Errorf("joinMode(%v, %v) = %v is below an argument", a, b, j)
			}
			for _, u := range allModes {
				if covers(u, a) && covers(u, b) && !covers(u, j) {
					t.Errorf("joinMode(%v, %v) = %v is not below the upper bound %v", a, b, j, u)
				}
			}
		}
		if joinMode(a, a) != a {
			t.Errorf("joinMode not idempotent on %v", a)
		}
	}
}

// TestGCombineAllPairs drives the merge through the table for every
// mode pair, S+IX→SIX included — the case a naive max would get wrong:
// a transaction granted a and then b on one granule holds their join,
// in the granule's holder map and in its own hold set alike.
func TestGCombineAllPairs(t *testing.T) {
	for _, fast := range []bool{true, false} {
		tab := NewTable(WithFastPath(fast))
		// One earlier episode makes the granule eligible for fast grants.
		mustAcquire(t, tab, 99, 7, ModeExclusive)
		tab.ReleaseAll(99)
		txn := TxnID(1)
		for _, a := range allModes {
			for _, b := range allModes {
				mustAcquire(t, tab, txn, 7, a)
				mustAcquire(t, tab, txn, 7, b)
				want := joinMode(a, b)
				if got, ok := tab.heldMode(txn, 7); !ok || got != want {
					t.Errorf("fast=%v: %v then %v holds %v/%v, want %v", fast, a, b, got, ok, want)
				}
				for _, m := range allModes {
					if got := tab.HoldsAtLeast(txn, 7, m); got != covers(want, m) {
						t.Errorf("fast=%v: holding %v, HoldsAtLeast(%v) = %v", fast, want, m, got)
					}
					// What the other transactions may still take is decided
					// by the holder map, which must carry the join too.
					other := txn + 1000
					if got := tab.TryUpgrade(other, 7, m); got {
						t.Errorf("fast=%v: TryUpgrade by a non-holder succeeded", fast)
					}
					ok, err := tab.TryAcquireAll(other, []Request{{Granule: 7, Mode: m}})
					if err != nil {
						t.Fatal(err)
					}
					tab.ReleaseAll(other)
					if blocked := !ok; blocked == GCompatible(m, want) {
						t.Errorf("fast=%v: holding %v, a %v request blocked=%v", fast, want, m, blocked)
					}
				}
				tab.ReleaseAll(txn)
				txn++
			}
		}
	}
}

// TestFastWordNeverCarriesIntentionMode pins FAST ⇒ S or X: an
// acquire–release cycle in an intention mode, alone or as an upgrade of
// a fast-held S or X, on a granule that is eligible for fast grants,
// moves none of the fast-path counters and leaves the granule eligible.
func TestFastWordNeverCarriesIntentionMode(t *testing.T) {
	tab := NewTable()
	ctx := context.Background()
	const g = Granule(3)
	cycle := func(txn TxnID, modes ...Mode) {
		t.Helper()
		for _, m := range modes {
			mustAcquire(t, tab, txn, g, m)
		}
		tab.ReleaseAll(txn)
	}
	cycle(1, ModeExclusive) // slow episode; its release promotes g
	before := tab.FastStats()
	cycle(2, ModeShared)
	if d := tab.FastStats(); d.Grants != before.Grants+1 || d.Releases != before.Releases+1 {
		t.Fatalf("g is not fast-eligible: %+v → %+v", before, d)
	}
	before = tab.FastStats()
	txn := TxnID(10)
	for _, m := range []Mode{ModeIS, ModeIX, ModeSIX} {
		cycle(txn, m)
		if err := tab.AcquireAll(ctx, txn+1, []Request{{g, m}}); err != nil {
			t.Fatal(err)
		}
		tab.ReleaseAll(txn + 1)
		if err := tab.AcquireAll(ctx, txn+2, []Request{{g, m}, {g + 1, ModeShared}}); err != nil {
			t.Fatal(err)
		}
		tab.ReleaseAll(txn + 2)
		txn += 3
	}
	after := tab.FastStats()
	after.Fallbacks = before.Fallbacks // a batch that meets an intention mode falls back, and says so
	if after != before {
		t.Fatalf("intention-mode cycles moved the fast path: %+v → %+v", before, tab.FastStats())
	}
	// An intention mode on top of a fast-held S: the S grant is fast, the
	// upgrade demotes, and the word is never FAST in SIX.
	mustAcquire(t, tab, 50, g, ModeShared)
	if fs := tab.fastLookup(g); fs == nil || !fpIsFast(fs.word.Load()) {
		t.Fatal("S grant did not take the fast word")
	}
	mustAcquire(t, tab, 50, g, ModeIX)
	if fs := tab.fastLookup(g); fpIsFast(fs.word.Load()) {
		t.Fatal("word still FAST after an upgrade into SIX")
	}
	if m, _ := tab.heldMode(50, g); m != ModeSIX {
		t.Fatalf("S then IX holds %v, want SIX", m)
	}
	tab.ReleaseAll(50)
	before = tab.FastStats()
	cycle(51, ModeExclusive)
	if d := tab.FastStats(); d.Grants != before.Grants+1 {
		t.Fatal("g did not return to the fast path after its intention-mode episode")
	}
}

// TestCoalesceMergesToJoin pins that duplicate granules in a claim
// coalesce to the join of their modes regardless of request order; a
// merged set comes back in ascending granule order, a set with nothing
// to merge exactly as given.
func TestCoalesceMergesToJoin(t *testing.T) {
	cases := []struct {
		name string
		in   []Request
		want []Request
	}{
		{"S then X", []Request{{1, ModeShared}, {1, ModeExclusive}},
			[]Request{{1, ModeExclusive}}},
		{"X then S", []Request{{1, ModeExclusive}, {1, ModeShared}},
			[]Request{{1, ModeExclusive}}},
		{"S then S", []Request{{1, ModeShared}, {1, ModeShared}},
			[]Request{{1, ModeShared}}},
		{"X then X", []Request{{1, ModeExclusive}, {1, ModeExclusive}},
			[]Request{{1, ModeExclusive}}},
		{"S then IX", []Request{{1, ModeShared}, {1, ModeIX}},
			[]Request{{1, ModeSIX}}},
		{"IX then S", []Request{{1, ModeIX}, {1, ModeShared}},
			[]Request{{1, ModeSIX}}},
		{"IS then IX", []Request{{1, ModeIS}, {1, ModeIX}},
			[]Request{{1, ModeIX}}},
		{"SIX then X", []Request{{1, ModeSIX}, {1, ModeExclusive}},
			[]Request{{1, ModeExclusive}}},
		{"merged and sorted", []Request{{3, ModeShared}, {1, ModeExclusive}, {3, ModeExclusive}, {2, ModeShared}},
			[]Request{{1, ModeExclusive}, {2, ModeShared}, {3, ModeExclusive}}},
		{"distinct, as given", []Request{{3, ModeShared}, {1, ModeExclusive}, {2, ModeShared}},
			[]Request{{3, ModeShared}, {1, ModeExclusive}, {2, ModeShared}}},
		{"empty", nil, []Request{}},
	}
	for _, c := range cases {
		got := coalesce(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%s: coalesce returned %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: coalesce[%d] = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestCoalescedClaimGrantsJoin drives the merge end-to-end: a claim
// naming one granule in S and X must hold it in X.
func TestCoalescedClaimGrantsJoin(t *testing.T) {
	tab := NewTable()
	mustAcquireAll(t, tab, 1, []Request{{Granule: 9, Mode: ModeShared}, {Granule: 9, Mode: ModeExclusive}})
	if !tab.HoldsAtLeast(1, 9, ModeExclusive) {
		t.Fatal("coalesced S+X claim should hold X")
	}
	if n := tab.HeldBy(1); n != 1 {
		t.Fatalf("HeldBy = %d, want 1", n)
	}
	tab.ReleaseAll(1)
	mustAcquireAll(t, tab, 2, []Request{{Granule: 9, Mode: ModeIX}, {Granule: 9, Mode: ModeShared}})
	if m, _ := tab.heldMode(2, 9); m != ModeSIX {
		t.Fatalf("coalesced IX+S claim holds %v, want SIX", m)
	}
	tab.ReleaseAll(2)
}
