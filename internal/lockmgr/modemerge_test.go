package lockmgr

import "testing"

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
// in the granule's holder vector and in its own hold set alike.
func TestGCombineAllPairs(t *testing.T) {
	tab := NewTable()
	txn := TxnID(1)
	for _, a := range allModes {
		for _, b := range allModes {
			mustAcquire(t, tab, txn, 7, a)
			mustAcquire(t, tab, txn, 7, b)
			want := joinMode(a, b)
			if got, ok := tab.heldMode(txn, 7); !ok || got != want {
				t.Errorf("%v then %v holds %v/%v, want %v", a, b, got, ok, want)
			}
			for _, m := range allModes {
				if got := tab.HoldsAtLeast(txn, 7, m); got != covers(want, m) {
					t.Errorf("holding %v, HoldsAtLeast(%v) = %v", want, m, got)
				}
				// What the other transactions may still take is decided
				// by the granule's holder vector, which must carry the
				// join too.
				other := txn + 1000
				if got := tab.TryUpgrade(other, 7, m); got {
					t.Errorf("TryUpgrade by a non-holder succeeded")
				}
				ok, err := tab.TryAcquireAll(other, []Request{{Granule: 7, Mode: m}})
				if err != nil {
					t.Fatal(err)
				}
				tab.ReleaseAll(other)
				if blocked := !ok; blocked == GCompatible(m, want) {
					t.Errorf("holding %v, a %v request blocked=%v", want, m, blocked)
				}
			}
			tab.ReleaseAll(txn)
			txn++
		}
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
