package lockmgr

import "testing"

// The mode-merge audit (flat and hierarchical): the merge of two lock
// modes held or requested by one transaction must be the lattice join —
// the weakest mode at least as strong as both — not merely whichever
// compares greater. For the flat S/X lattice join and max coincide; for
// the hierarchical lattice they do not (S ⊔ IX = SIX, while max says
// IX or S depending on declaration order). These tables pin every pair.

func TestJoinModeAllPairs(t *testing.T) {
	cases := []struct {
		a, b, want Mode
	}{
		{ModeShared, ModeShared, ModeShared},
		{ModeShared, ModeExclusive, ModeExclusive},
		{ModeExclusive, ModeShared, ModeExclusive},
		{ModeExclusive, ModeExclusive, ModeExclusive},
	}
	for _, c := range cases {
		if got := joinMode(c.a, c.b); got != c.want {
			t.Errorf("joinMode(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestJoinModeIsAJoin checks the algebraic laws directly: commutative,
// idempotent, and an upper bound of both arguments.
func TestJoinModeIsAJoin(t *testing.T) {
	modes := []Mode{ModeShared, ModeExclusive}
	for _, a := range modes {
		for _, b := range modes {
			j := joinMode(a, b)
			if j != joinMode(b, a) {
				t.Errorf("joinMode not commutative on (%v, %v)", a, b)
			}
			if j < a || j < b {
				t.Errorf("joinMode(%v, %v) = %v is below an argument", a, b, j)
			}
		}
		if joinMode(a, a) != a {
			t.Errorf("joinMode not idempotent on %v", a)
		}
	}
}

// TestGCombineAllPairs pins the hierarchical merge for every mode pair,
// S+IX→SIX included — the case a naive max would get wrong.
func TestGCombineAllPairs(t *testing.T) {
	want := map[[2]GMode]GMode{
		{GModeIS, GModeIS}: GModeIS, {GModeIS, GModeIX}: GModeIX,
		{GModeIS, GModeS}: GModeS, {GModeIS, GModeSIX}: GModeSIX,
		{GModeIS, GModeX}:  GModeX,
		{GModeIX, GModeIX}: GModeIX, {GModeIX, GModeS}: GModeSIX,
		{GModeIX, GModeSIX}: GModeSIX, {GModeIX, GModeX}: GModeX,
		{GModeS, GModeS}: GModeS, {GModeS, GModeSIX}: GModeSIX,
		{GModeS, GModeX}:     GModeX,
		{GModeSIX, GModeSIX}: GModeSIX, {GModeSIX, GModeX}: GModeX,
		{GModeX, GModeX}: GModeX,
	}
	modes := []GMode{GModeIS, GModeIX, GModeS, GModeSIX, GModeX}
	for _, a := range modes {
		for _, b := range modes {
			expect, ok := want[[2]GMode{a, b}]
			if !ok {
				expect = want[[2]GMode{b, a}] // table stores each unordered pair once
			}
			if got := combine(a, b); got != expect {
				t.Errorf("combine(%v, %v) = %v, want %v", a, b, got, expect)
			}
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
}
