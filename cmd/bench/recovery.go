// The recovery benchmark suite: reopening a durable engine whose
// history was checkpointed down to a snapshot plus a short tail, against
// reopening the same class of history left as raw logs. Both are real
// file-backed logs built by the engine, so the replay path measured is
// the one OpenDurable runs; the ratio carries a 2x floor.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"granulock/internal/engine"
	"granulock/internal/wal"
)

// openBenchDB opens the durable engine the suite builds and reopens.
func openBenchDB(dir string) (*engine.DB, error) {
	const dbsize = 500
	db, _, err := engine.OpenDurable(dir, dbsize,
		engine.WithNodes(4),
		engine.WithWALOptions(wal.WithPreallocate(0)),
	)
	return db, err
}

// buildHistory runs a transfer workload against a fresh durable engine
// in dir, optionally checkpointing so only a short tail outlives the
// snapshot, and closes it.
func buildHistory(dir string, txnsPerWorker int, checkpoint bool) error {
	db, err := openBenchDB(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	_, err = db.RunClosed(ctx, engine.Workload{
		Workers: 4, TxnsPerWorker: txnsPerWorker, TransfersPerTxn: 2, Seed: 7,
	})
	if err == nil && checkpoint {
		if err = db.Checkpoint(ctx); err == nil {
			_, err = db.RunClosed(ctx, engine.Workload{
				Workers: 2, TxnsPerWorker: 10, TransfersPerTxn: 2, Seed: 11,
			})
		}
	}
	if err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// benchRecovery measures recoveries/sec of reopening dir. Recovery
// does not mutate the logs, so repeated reopens replay identical state.
func benchRecovery(dir string, iters int) (entry, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		db, err := openBenchDB(dir)
		if err != nil {
			return entry{}, err
		}
		if err := db.Close(); err != nil {
			return entry{}, err
		}
	}
	elapsed := time.Since(start)
	return entry{
		Ops:       int64(iters),
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(iters),
		OpsPerSec: float64(iters) / elapsed.Seconds(),
	}, nil
}

// runRecovery fills rep with the recovery suite.
func runRecovery(rep *report) error {
	historyTxns := 1000 // per worker, 4 workers
	iters := 20
	if rep.Quick {
		historyTxns = 250
		iters = 8
	}

	tmp, err := os.MkdirTemp("", "granulock-bench-recovery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, c := range []struct {
		name       string
		checkpoint bool
	}{
		{"wal/recovery/full-history", false},
		{"wal/recovery/snapshot-bounded", true},
	} {
		dir := filepath.Join(tmp, filepath.Base(c.name))
		if err := buildHistory(dir, historyTxns, c.checkpoint); err != nil {
			return fmt.Errorf("%s: build history: %w", c.name, err)
		}
		if err := rep.add(c.name, func() (entry, error) { return benchRecovery(dir, iters) }); err != nil {
			return err
		}
	}
	// The recovery speedup's magnitude is a function of how much history
	// the snapshot truncates, so quick and full runs are deliberately
	// named apart: the cross-fidelity ratio diff skips them, while the
	// 2x floor still gates every fresh run via its recorded target.
	return rep.compare(
		fmt.Sprintf("wal: snapshot-bounded vs full-history recovery (%d-txn history)", 4*historyTxns),
		"wal/recovery/snapshot-bounded", "wal/recovery/full-history", 1, 2.0)
}
