package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"granulock/internal/model"
	"granulock/internal/sched"
)

// TestCachedRunMatchesRun verifies the dedup cache is invisible: a cold
// miss, a warm hit and a direct model.Run all agree bit-for-bit.
func TestCachedRunMatchesRun(t *testing.T) {
	p := BaseParams()
	p.TMax = 50
	direct, err := model.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CachedRunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := CachedRunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if cold != direct || warm != direct {
		t.Fatalf("cached metrics diverge:\ndirect %+v\ncold   %+v\nwarm   %+v", direct, cold, warm)
	}
}

// TestCachedRunKeysDistinguishParams makes sure near-identical cells do
// not collide: any field difference must produce different results where
// the model says they differ.
func TestCachedRunKeysDistinguishParams(t *testing.T) {
	p := BaseParams()
	p.TMax = 50
	a, err := CachedRunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.Seed = p.Seed + 1
	b, err := CachedRunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different seeds returned identical metrics; cache key too coarse")
	}
}

// TestCellCacheCapHoldsUnderConcurrency pins the reservation
// accounting: concurrent inserts near the cap must never overshoot it.
// The old Load-then-LoadOrStore sequence let every goroutine pass the
// capacity check before any of them had stored.
func TestCellCacheCapHoldsUnderConcurrency(t *testing.T) {
	oldLen, oldSize := cellCacheLen.Load(), cellCacheSize
	defer func() {
		cellCacheSize = oldSize
		cellCacheLen.Store(oldLen)
		cellCache.Range(func(k, _ any) bool {
			if s, ok := k.(string); ok && len(s) > 4 && s[:4] == "cap-" {
				cellCache.Delete(k)
			}
			return true
		})
	}()
	cellCacheSize = oldLen + 4 // leave 4 free slots
	const workers = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mirror CachedRunContext's insert path with distinct synthetic keys.
			key := fmt.Sprintf("cap-%d", w)
			if cellCacheLen.Add(1) > cellCacheSize {
				cellCacheLen.Add(-1)
				return
			}
			if _, loaded := cellCache.LoadOrStore(key, model.Metrics{}); loaded {
				cellCacheLen.Add(-1)
			}
		}()
	}
	wg.Wait()
	if n := cellCacheLen.Load(); n > cellCacheSize {
		t.Fatalf("cache accounting overshot the cap: %d > %d", n, cellCacheSize)
	}
	stored := 0
	cellCache.Range(func(k, _ any) bool {
		if s, ok := k.(string); ok && len(s) > 4 && s[:4] == "cap-" {
			stored++
		}
		return true
	})
	if stored > 4 {
		t.Fatalf("%d synthetic cells stored, cap allowed 4", stored)
	}
}

// TestCachedRunSkipsStatefulSchedulers pins the safety rule: cells with
// an admission policy are never cached, because policies carry state
// across a run and a fresh instance is part of the cell's identity.
func TestCachedRunSkipsStatefulSchedulers(t *testing.T) {
	p := BaseParams()
	p.TMax = 50
	p.Scheduler = sched.FixedMPL{Limit: 2}
	if _, ok := cellKey(p); ok {
		t.Fatal("scheduler cell was deemed cacheable")
	}
	m1, err := CachedRunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := model.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("uncached scheduler run diverged: %+v vs %+v", m1, m2)
	}
}
