package lockmgr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// allModes lists the five lock modes.
var allModes = []Mode{ModeShared, ModeExclusive, ModeIS, ModeIX, ModeSIX}

func TestGCompatibilityMatrix(t *testing.T) {
	// Gray's matrix written out, row = requested, column = held.
	const y, n = true, false
	want := [5][5]bool{
		//               S  X  IS IX SIX
		ModeShared:    {y, n, y, n, n},
		ModeExclusive: {n, n, n, n, n},
		ModeIS:        {y, n, y, y, y},
		ModeIX:        {n, n, y, y, n},
		ModeSIX:       {n, n, y, n, n},
	}
	for _, req := range allModes {
		for _, held := range allModes {
			if got := GCompatible(req, held); got != want[req][held] {
				t.Errorf("GCompatible(%v, %v) = %v, want %v", req, held, got, want[req][held])
			}
		}
	}
}

func TestGCompatibilitySymmetry(t *testing.T) {
	// Lock compatibility is symmetric.
	for _, a := range allModes {
		for _, b := range allModes {
			if GCompatible(a, b) != GCompatible(b, a) {
				t.Errorf("asymmetric compatibility: %v vs %v", a, b)
			}
		}
	}
}

func TestCombine(t *testing.T) {
	// What a transaction holds after being granted both modes on one node.
	cases := []struct{ a, b, want Mode }{
		{ModeShared, ModeIX, ModeSIX},
		{ModeIX, ModeShared, ModeSIX},
		{ModeIS, ModeIX, ModeIX},
		{ModeIS, ModeShared, ModeShared},
		{ModeShared, ModeExclusive, ModeExclusive},
		{ModeSIX, ModeIS, ModeSIX},
		{ModeExclusive, ModeExclusive, ModeExclusive},
	}
	for _, c := range cases {
		if got := joinMode(c.a, c.b); got != c.want {
			t.Errorf("joinMode(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntentionFor(t *testing.T) {
	if IntentionFor(ModeShared) != ModeIS || IntentionFor(ModeIS) != ModeIS {
		t.Fatal("read modes need IS intention")
	}
	for _, m := range []Mode{ModeExclusive, ModeIX, ModeSIX} {
		if IntentionFor(m) != ModeIX {
			t.Fatalf("write mode %v needs IX intention", m)
		}
	}
}

func TestGModeString(t *testing.T) {
	names := map[Mode]string{ModeIS: "IS", ModeIX: "IX", ModeShared: "S", ModeSIX: "SIX", ModeExclusive: "X"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode %d String = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(99).String() == "" || Mode(-1).String() == "" {
		t.Fatal("unknown Mode String empty")
	}
}

// Node ids of the test hierarchy: a database, relations under it, and
// granules under a relation.
const (
	nDB Granule = iota + 1000
	nRel
	nR1
	nR2
	nG0 // granule i is nG0 + i
)

func path(ids ...Granule) []Granule { return ids }

// held returns the mode txn holds node in through h's table.
func (h *HierTable) held(txn TxnID, node Granule) (Mode, bool) { return h.t.heldMode(txn, node) }

func TestHierLockSetsIntentions(t *testing.T) {
	h := NewHierTable(NewTable())
	ctx := context.Background()
	if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+1), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if m, ok := h.held(1, nDB); !ok || m != ModeIX {
		t.Fatalf("root mode %v/%v, want IX", m, ok)
	}
	if m, ok := h.held(1, nRel); !ok || m != ModeIX {
		t.Fatalf("relation mode %v/%v, want IX", m, ok)
	}
	if m, ok := h.held(1, nG0+1); !ok || m != ModeExclusive {
		t.Fatalf("granule mode %v/%v, want X", m, ok)
	}
}

func TestHierFineGrainedConcurrency(t *testing.T) {
	// Two writers on different granules of the same relation coexist via
	// intention locks — the whole point of multigranularity locking.
	h := NewHierTable(NewTable())
	ctx := context.Background()
	if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+1), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if err := h.Lock(ctx, 2, path(nDB, nRel, nG0+2), ModeExclusive); err != nil {
		t.Fatal(err)
	}
}

func TestHierCoarseLockExcludesFine(t *testing.T) {
	// An S lock on the relation blocks a writer on any of its granules.
	h := NewHierTable(NewTable())
	ctx := context.Background()
	if err := h.Lock(ctx, 1, path(nDB, nRel), ModeShared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- h.Lock(ctx, 2, path(nDB, nRel, nG0+1), ModeExclusive) }()
	select {
	case <-done:
		t.Fatal("granule writer not blocked by relation S lock")
	case <-time.After(20 * time.Millisecond):
	}
	h.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHierReadersShareRelation(t *testing.T) {
	h := NewHierTable(NewTable())
	ctx := context.Background()
	for txn := TxnID(1); txn <= 5; txn++ {
		if err := h.Lock(ctx, txn, path(nDB, nRel), ModeShared); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHierSIXComposition(t *testing.T) {
	// Holding S then IX on the same node strengthens to SIX.
	h := NewHierTable(NewTable())
	ctx := context.Background()
	if err := h.Lock(ctx, 1, path(nDB, nRel), ModeShared); err != nil {
		t.Fatal(err)
	}
	if err := h.Lock(ctx, 1, path(nDB, nRel, nG0+1), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if m, _ := h.held(1, nRel); m != ModeSIX {
		t.Fatalf("relation mode %v, want SIX", m)
	}
	// Another reader of the relation must now wait (SIX vs S).
	done := make(chan error, 1)
	go func() { done <- h.Lock(ctx, 2, path(nDB, nRel), ModeShared) }()
	select {
	case <-done:
		t.Fatal("S granted against SIX")
	case <-time.After(20 * time.Millisecond):
	}
	h.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHierDeadlockDetected(t *testing.T) {
	h := NewHierTable(NewTable())
	ctx := context.Background()
	if err := h.Lock(ctx, 1, path(nDB, nR1), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	if err := h.Lock(ctx, 2, path(nDB, nR2), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	step := make(chan error, 1)
	go func() { step <- h.Lock(ctx, 1, path(nDB, nR2), ModeExclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := h.Lock(ctx, 2, path(nDB, nR1), ModeExclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	h.ReleaseAll(2)
	if err := <-step; err != nil {
		t.Fatal(err)
	}
	h.ReleaseAll(1)
}

func TestHierContextCancel(t *testing.T) {
	h := NewHierTable(NewTable())
	if err := h.Lock(context.Background(), 1, path(nDB), ModeExclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- h.Lock(ctx, 2, path(nDB), ModeShared) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	h.ReleaseAll(1)
}

func TestHierEmptyPath(t *testing.T) {
	h := NewHierTable(NewTable())
	if err := h.Lock(context.Background(), 1, nil, ModeShared); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestHierConcurrentStress(t *testing.T) {
	// Mixed readers/writers over a two-level hierarchy with retry on
	// deadlock: must terminate with exclusive access honored per granule.
	h := NewHierTable(NewTable())
	const workers = 12
	const iters = 100
	var critical [4]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := TxnID(1 + w + workers*(i+1))
				g := (w + i) % 4
				p := path(nDB, nRel, nG0+Granule(g))
				mode := ModeShared
				if (w+i)%3 == 0 {
					mode = ModeExclusive
				}
				for {
					err := h.Lock(context.Background(), txn, p, mode)
					if err == nil {
						break
					}
					if errors.Is(err, ErrDeadlock) {
						h.ReleaseAll(txn)
						continue
					}
					t.Errorf("lock: %v", err)
					return
				}
				if mode == ModeExclusive {
					if critical[g].Add(1) != 1 {
						t.Errorf("X not exclusive on granule %d", g)
					}
					critical[g].Add(-1)
				}
				h.ReleaseAll(txn)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hierarchical stress hung")
	}
}

func BenchmarkHierLockRelease(b *testing.B) {
	h := NewHierTable(NewTable())
	ctx := context.Background()
	p := path(nDB, nRel, nG0+1)
	for i := 0; i < b.N; i++ {
		txn := TxnID(i + 1)
		if err := h.Lock(ctx, txn, p, ModeShared); err != nil {
			b.Fatal(err)
		}
		h.ReleaseAll(txn)
	}
}
