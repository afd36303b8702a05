package granulock_test

import (
	"context"
	"runtime"
	"testing"

	"granulock"
	"granulock/internal/engine"
	"granulock/internal/engine/cc"
	"granulock/internal/lockmgr"
)

// TestCrossSystemGranularityStory verifies the paper's core trade-off
// end to end on three views of it: the simulation model, the executable
// engine and the engine's hierarchical protocol all agree that finer
// granularity means fewer conflicts.
func TestCrossSystemGranularityStory(t *testing.T) {
	// 1. Simulation model: denial rate falls as ltot rises.
	denial := func(ltot int) float64 {
		p := granulock.DefaultParams()
		p.TMax = 500
		p.Ltot = ltot
		m, err := granulock.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return m.DenialRate
	}
	if d1, d100 := denial(1), denial(100); d100 >= d1 {
		t.Fatalf("simulation: denial rate did not fall with granularity: %v -> %v", d1, d100)
	}

	// 2. Executable engine: blocked acquisitions fall as granules rise.
	blocks := func(granules int) int64 {
		db, err := engine.Open(1000,
			engine.WithNodes(4),
			engine.WithGranules(granules),
			engine.WithProtocol(engine.Conservative),
			engine.WithInitialValue(100))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.RunClosed(context.Background(), engine.Workload{
			Workers: 8, TxnsPerWorker: 100, TransfersPerTxn: 2,
			WorkPerTxn: 20000, Seed: 1,
		}); err != nil {
			t.Fatal(err)
		}
		return db.Stats().Lock.Blocks
	}
	if b1, b100 := blocks(1), blocks(100); b100 >= b1 {
		t.Fatalf("engine: blocks did not fall with granularity: %d -> %d", b1, b100)
	}

	// 3. Hierarchical protocol: one transaction holds entity 0's
	// granule exclusive while another claims entity 99's. With a granule
	// per entity the claim is granted at once; with one granule for the
	// whole database it parks behind the holder.
	hierBlocks := func(granules int) int64 {
		db, err := engine.Open(100,
			engine.WithGranules(granules),
			engine.WithProtocol(engine.Hierarchical))
		if err != nil {
			t.Fatal(err)
		}
		inst := db.Instance()
		ctx := context.Background()
		claim := func(tx *cc.Tx, entity int) error {
			inst.Begin(ctx, tx)
			return inst.Acquire(ctx, tx, []lockmgr.Request{{Granule: db.GranuleOf(entity), Mode: lockmgr.ModeExclusive}})
		}
		hold, other := &cc.Tx{ID: 1, Priority: 1}, &cc.Tx{ID: 2, Priority: 2}
		if err := claim(hold, 0); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- claim(other, 99) }()
		// Wait until the second claim is granted or has parked, polling
		// the block counter rather than sleeping.
		granted := false
		for !granted && db.Stats().Lock.Blocks == 0 {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				granted = true
			default:
				runtime.Gosched()
			}
		}
		blocked := db.Stats().Lock.Blocks
		inst.End(hold)
		if !granted {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		inst.End(other)
		return blocked
	}
	if fine := hierBlocks(100); fine != 0 {
		t.Fatalf("hierarchical: per-entity granules blocked disjoint rows (%d)", fine)
	}
	if coarse := hierBlocks(1); coarse == 0 {
		t.Fatal("hierarchical: a database-wide granule did not block disjoint rows")
	}
}

// TestSimulatorAnalyticEngineConsistentOptimum ties the simulator and
// the analytic model together at the facade level.
func TestSimulatorAnalyticEngineConsistentOptimum(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 500
	simBest, _, err := granulock.OptimalGranularity(p)
	if err != nil {
		t.Fatal(err)
	}
	anaBest, _, err := granulock.PredictOptimalGranularity(p)
	if err != nil {
		t.Fatal(err)
	}
	// Both optima must be interior and within a factor of ~10 of each
	// other on the log grid (they usually coincide exactly).
	if simBest <= 1 || simBest >= p.DBSize || anaBest <= 1 || anaBest >= p.DBSize {
		t.Fatalf("extreme optimum: simulated %d, analytic %d", simBest, anaBest)
	}
	lo, hi := simBest, anaBest
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > lo*10 {
		t.Fatalf("optima far apart: simulated %d vs analytic %d", simBest, anaBest)
	}
}
