package engine

import (
	"context"
	"testing"
)

func TestWorkloadValidation(t *testing.T) {
	db := openBase(t)
	bad := []Workload{
		{Workers: 0, TxnsPerWorker: 1, TransfersPerTxn: 1},
		{Workers: 1, TxnsPerWorker: 0, TransfersPerTxn: 1},
		{Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 0},
		{Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 1, ReadFraction: -0.1},
		{Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 1, ReadFraction: 1.1},
		{Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 1, HotEntities: 9999},
	}
	for _, w := range bad {
		if _, err := db.RunClosed(context.Background(), w); err == nil {
			t.Errorf("invalid workload %+v accepted", w)
		}
	}
}

func TestRunClosedPreservesBalance(t *testing.T) {
	for _, protocol := range []Protocol{Conservative, ClaimAsNeeded} {
		db := openBase(t, WithProtocol(protocol))
		want := db.TotalBalance()
		res, err := db.RunClosed(context.Background(), Workload{
			Workers:         8,
			TxnsPerWorker:   100,
			TransfersPerTxn: 3,
			ReadFraction:    0.2,
			Seed:            1,
		})
		if err != nil {
			t.Fatalf("%v: %v", protocol, err)
		}
		if res.Committed != 800 {
			t.Fatalf("%v: committed %d, want 800", protocol, res.Committed)
		}
		if res.ThroughputTPS <= 0 || res.Elapsed <= 0 {
			t.Fatalf("%v: throughput not measured: %+v", protocol, res)
		}
		if got := db.TotalBalance(); got != want {
			t.Fatalf("%v: conservation violated: %d, want %d", protocol, got, want)
		}
	}
}

func TestRunClosedHotSpotRaisesContention(t *testing.T) {
	// Restricting the access domain to one granule's worth of entities
	// must produce more lock blocking than spreading over the database.
	mk := func(hot int) int64 {
		db := openBase(t)
		_, err := db.RunClosed(context.Background(), Workload{
			Workers:         8,
			TxnsPerWorker:   100,
			TransfersPerTxn: 2,
			HotEntities:     hot,
			WorkPerTxn:      20000,
			Seed:            2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db.Stats().Lock.Blocks
	}
	spread := mk(0) // whole database
	hot := mk(20)   // one granule (dbsize=1000, granules=50)
	if hot <= spread {
		t.Fatalf("hot spot blocks (%d) not above spread blocks (%d)", hot, spread)
	}
}

func TestFinerGranularityReducesBlocking(t *testing.T) {
	// The executable cross-validation of the paper's core trade-off:
	// with one granule every concurrent transaction conflicts; with many
	// granules conflicts become rare. (The cost side — lock overhead —
	// is visible in the grant counts and the realdb example's timings.)
	blocks := func(granules int) int64 {
		db := openBase(t, WithGranules(granules))
		_, err := db.RunClosed(context.Background(), Workload{
			Workers:         8,
			TxnsPerWorker:   100,
			TransfersPerTxn: 2,
			WorkPerTxn:      20000,
			Seed:            3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db.Stats().Lock.Blocks
	}
	coarse := blocks(1)
	fine := blocks(1000)
	if fine >= coarse {
		t.Fatalf("fine granularity blocks (%d) not below coarse (%d)", fine, coarse)
	}
}

func TestZipfSkewRaisesContention(t *testing.T) {
	blocks := func(skew float64) int64 {
		db := openBase(t)
		_, err := db.RunClosed(context.Background(), Workload{
			Workers:         8,
			TxnsPerWorker:   100,
			TransfersPerTxn: 2,
			WorkPerTxn:      20000,
			ZipfSkew:        skew,
			Seed:            9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db.Stats().Lock.Blocks
	}
	uniform := blocks(0)
	skewed := blocks(1.2)
	if skewed <= uniform {
		t.Fatalf("zipf skew blocks (%d) not above uniform (%d)", skewed, uniform)
	}
}

func TestZipfSkewValidation(t *testing.T) {
	db := openBase(t)
	_, err := db.RunClosed(context.Background(), Workload{
		Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 1, ZipfSkew: -1,
	})
	if err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestRunClosedDeterministicStream(t *testing.T) {
	// The generated operation stream (not the interleaving) must be
	// seed-deterministic: same seed, single worker -> same final state.
	final := func() int64 {
		db := openBase(t)
		_, err := db.RunClosed(context.Background(), Workload{
			Workers:         1,
			TxnsPerWorker:   50,
			TransfersPerTxn: 2,
			Seed:            7,
		})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := db.Read(0)
		return v
	}
	if final() != final() {
		t.Fatal("single-worker run not reproducible")
	}
}

func BenchmarkEngineConservative(b *testing.B) {
	db, err := Open(10000, WithNodes(4), WithGranules(100), WithProtocol(Conservative), WithInitialValue(100))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := db.Execute(ctx, Transfer(i%10000, (i*7+1)%10000, 1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkEngineClaimAsNeeded(b *testing.B) {
	db, err := Open(10000, WithNodes(4), WithGranules(100), WithProtocol(ClaimAsNeeded), WithInitialValue(100))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := db.Execute(ctx, Transfer(i%10000, (i*7+1)%10000, 1)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
