package lockmgr

import (
	"context"
	"testing"
	"time"
)

func TestAbsorbs(t *testing.T) {
	cases := []struct {
		held, want Mode
		ok         bool
	}{
		{ModeExclusive, ModeExclusive, true},
		{ModeExclusive, ModeShared, true},
		{ModeExclusive, ModeIX, true},
		{ModeShared, ModeShared, true},
		{ModeShared, ModeIS, true},
		{ModeShared, ModeExclusive, false},
		{ModeSIX, ModeShared, true},
		{ModeSIX, ModeExclusive, false},
		{ModeIS, ModeShared, false},
		{ModeIX, ModeExclusive, false},
	}
	for _, c := range cases {
		if got := absorbs(c.held, c.want); got != c.ok {
			t.Errorf("absorbs(%v, %v) = %v, want %v", c.held, c.want, got, c.ok)
		}
	}
}

func TestEscalationTriggersAtThreshold(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(3))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		p := path(nDB, nRel, nG0+Granule(i))
		if err := h.Lock(ctx, 1, p, ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	if h.Escalations() != 1 {
		t.Fatalf("escalations %d, want 1", h.Escalations())
	}
	// Writers under IX escalate the parent to X.
	if m, ok := h.held(1, nRel); !ok || m != ModeExclusive {
		t.Fatalf("relation mode %v/%v after escalation, want X", m, ok)
	}
}

func TestEscalationAbsorbsFurtherChildren(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(2))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	if h.Escalations() != 1 {
		t.Fatalf("escalations %d", h.Escalations())
	}
	// The next child lock is absorbed: no per-child holder appears.
	if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+99), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if _, held := h.held(1, nG0+99); held {
		t.Fatal("absorbed child still took its own lock")
	}
}

func TestEscalationReaderGetsS(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(2))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeShared); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := h.held(1, nRel); !ok || m != ModeShared {
		t.Fatalf("relation mode %v/%v, want S", m, ok)
	}
	// Another reader of a different granule is still compatible.
	if err := h.Lock(ctx, 2, path(nDB, nRel, nG0+5), ModeShared); err != nil {
		t.Fatal(err)
	}
	// But a writer now blocks on the whole relation.
	done := make(chan error, 1)
	go func() { done <- h.Lock(ctx, 3, path(nDB, nRel, nG0+9), ModeExclusive) }()
	select {
	case <-done:
		t.Fatal("writer not blocked by escalated S")
	case <-time.After(20 * time.Millisecond):
	}
	h.ReleaseAll(1)
	h.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEscalationSkippedWhenIncompatible(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(2))
	ctx := context.Background()
	// Txn 2 writes one granule: its IX on nRel blocks an S escalation
	// and its granule would conflict with an X escalation.
	if err := h.Lock(ctx, 2, path(nDB, nRel, nG0+99), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeShared); err != nil {
			t.Fatal(err)
		}
	}
	if h.Escalations() != 0 {
		t.Fatalf("escalated against an incompatible holder (%d)", h.Escalations())
	}
	if m, _ := h.held(1, nRel); m != ModeIS {
		t.Fatalf("relation mode %v, want IS (no escalation)", m)
	}
}

func TestEscalationDisabledByDefault(t *testing.T) {
	h := NewHierTable(NewTable())
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	if h.Escalations() != 0 {
		t.Fatal("escalation fired without opt-in")
	}
	if m, _ := h.held(1, nRel); m != ModeIX {
		t.Fatalf("relation mode %v, want IX", m)
	}
}

func TestEscalationStateClearedOnRelease(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(3))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	h.ReleaseAll(1)
	// A fresh transaction (same ID) must start counting from zero.
	if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+9), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if h.Escalations() != 0 {
		t.Fatal("stale child counts survived release")
	}
	h.ReleaseAll(1)
}

func TestEscalationOnlyOncePerParent(t *testing.T) {
	h := NewHierTable(NewTable(), WithEscalation(2))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	// Further absorbed locks must not re-escalate.
	for i := 10; i < 20; i++ {
		if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+Granule(i)), ModeExclusive); err != nil {
			t.Fatal(err)
		}
	}
	if h.Escalations() != 1 {
		t.Fatalf("escalations %d, want 1", h.Escalations())
	}
}
