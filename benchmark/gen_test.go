package main

import "testing"

func TestStreamHashDependsOnlyOnSeed(t *testing.T) {
	const clients, n = 8, 500
	a, again, b := streamHash(1, clients, n), streamHash(1, clients, n), streamHash(2, clients, n)
	if a != again {
		t.Errorf("seed 1 hashed to %#x, then to %#x", a, again)
	}
	if a == b {
		t.Errorf("seeds 1 and 2 both hashed to %#x", a)
	}
}

func TestTxnGenFollowsTheInputModel(t *testing.T) {
	g := newTxnGen(7, 3, 32)
	sizes := map[int]bool{}
	for i := 0; i < 5000; i++ {
		tx := g.next()
		k := len(tx.Ops)
		sizes[k] = true
		if k < 1 || k > 32 || tx.Work != workPerEntity*k {
			t.Fatalf("txn %d: %d ops, work %d", i, k, tx.Work)
		}
		var sum int64
		for j, op := range tx.Ops {
			if op.Entity != tx.Ops[0].Entity+j || op.Entity < 0 || op.Entity >= dbSize {
				t.Fatalf("txn %d: op %d touches entity %d, first is %d", i, j, op.Entity, tx.Ops[0].Entity)
			}
			sum += op.Delta
		}
		if sum != 0 {
			t.Fatalf("txn %d moves the balance sum by %d", i, sum)
		}
		if updates(tx) != (k > 1) {
			t.Fatalf("txn %d of size %d: updates = %v", i, k, updates(tx))
		}
	}
	if len(sizes) != 32 {
		t.Errorf("saw %d distinct sizes in 5000 transactions, want 32", len(sizes))
	}
}

func TestLockSetMatchesGranularity(t *testing.T) {
	g := newTxnGen(1, 0, 32)
	for i := 0; i < 1000; i++ {
		tx := g.next()
		if one := lockSet(nil, tx, 1); len(one) != 1 || one[0].Granule != 0 {
			t.Fatalf("ltot=1: %v", one)
		}
		fine := lockSet(nil, tx, dbSize)
		if len(fine) != len(tx.Ops) {
			t.Fatalf("ltot=%d: %d requests for %d ops", dbSize, len(fine), len(tx.Ops))
		}
		for j := 1; j < len(fine); j++ {
			if fine[j].Granule <= fine[j-1].Granule {
				t.Fatalf("requests not strictly ascending: %v", fine)
			}
		}
	}
}

func TestClaimsAreDistinct(t *testing.T) {
	g := newLockGen(1, 0, 100, 64)
	g.claim(4, 4, true)
	for i := 1; i < 16; i++ {
		g.claim(4, 4, false)
	}
	seen := map[int64]bool{}
	for _, r := range g.reqs {
		if r.Granule < 100 || r.Granule >= 164 || seen[int64(r.Granule)] {
			t.Fatalf("granule %d out of range or repeated in %v", r.Granule, g.reqs)
		}
		seen[int64(r.Granule)] = true
	}
	if len(seen) != 64 {
		t.Errorf("batch holds %d granules, want 64", len(seen))
	}
}
