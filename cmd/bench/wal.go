// The WAL benchmark suite: group-commit throughput against a
// per-commit-sync baseline (the same wal.Log with its committers
// serialized) at increasing committer counts, plus snapshot-bounded vs
// full-history recovery. Output is BENCH_wal.json.
//
// The commit cells run over an in-memory sink whose Sync sleeps for a
// fixed 200µs — an NVMe-class fsync — so the measurement isolates what
// group commit actually buys: syncs per committed transaction. Real
// device numbers vary by an order of magnitude across machines; the
// sleep makes the ratio reproducible, and the enforced floors are
// ratios, never absolute throughput. The recovery cells use real
// file-backed logs built by the engine so the replay path measured is
// the one OpenDurable runs.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/engine"
	"granulock/internal/wal"
)

// syncCost is the modeled fsync latency of the commit cells.
const syncCost = 200 * time.Microsecond

// slowSink is an in-memory log device: writes are cheap, Sync costs
// syncCost and counts itself.
type slowSink struct {
	mu    sync.Mutex
	bytes int64
	syncs atomic.Int64
}

func (s *slowSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.bytes += int64(len(p))
	s.mu.Unlock()
	return len(p), nil
}

func (s *slowSink) Sync() error {
	s.syncs.Add(1)
	time.Sleep(syncCost)
	return nil
}

// walEntry is one cell's record in BENCH_wal.json.
type walEntry struct {
	Name       string  `json:"name"`
	Committers int     `json:"committers,omitempty"`
	Ops        int64   `json:"ops"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// Syncs is how many device syncs the cell's ops cost — the quantity
	// group commit exists to shrink. Zero for the recovery cells.
	Syncs int64 `json:"syncs,omitempty"`
}

// walReport is the top-level BENCH_wal.json document; it reuses the
// locksrv comparison schema so -compare works unchanged.
type walReport struct {
	Schema      string         `json:"schema"`
	Generated   string         `json:"generated"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Quick       bool           `json:"quick"`
	Benchmarks  []walEntry     `json:"benchmarks"`
	Comparisons []lsComparison `json:"comparisons"`
}

// commitGroup is the record shape one committed transfer writes: begin,
// two updates, commit.
func commitGroup(txn int64) []wal.Record {
	return []wal.Record{
		{Kind: wal.KindBegin, Txn: txn},
		{Kind: wal.KindUpdate, Txn: txn, Entity: txn % 97, Before: txn, After: txn + 1},
		{Kind: wal.KindUpdate, Txn: txn, Entity: txn % 89, Before: txn, After: txn - 1},
		{Kind: wal.KindCommit, Txn: txn},
	}
}

// The two commit-cell modes.
const (
	// modeGroup is group commit: the flusher coalesces whatever queued
	// into one write+sync.
	modeGroup = "group"
	// modeSyncEach is the per-commit-sync baseline: the same Log denied
	// its batching — callers take a mutex around Commit, so the flusher
	// never finds more than one group queued and every commit costs one
	// write and one sync by construction.
	modeSyncEach = "sync-each"
)

// benchCommit measures commits/sec of c concurrent committers through
// one wal.Log in the given mode; every Commit blocks for durability.
func benchCommit(mode string, c, perCommitter int) walEntry {
	sink := &slowSink{}
	log := wal.NewLog(sink)
	commit := log.Commit
	if mode == modeSyncEach {
		var serialize sync.Mutex
		commit = func(rs []wal.Record) error {
			serialize.Lock()
			defer serialize.Unlock()
			return log.Commit(rs)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				txn := int64(w*perCommitter + i + 1)
				if err := commit(commitGroup(txn)); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	log.Close()
	ops := int64(c * perCommitter)
	return walEntry{
		Name:       fmt.Sprintf("wal/commit/%s/c%d", mode, c),
		Committers: c,
		Ops:        ops,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(ops),
		OpsPerSec:  float64(ops) / elapsed.Seconds(),
		Syncs:      sink.syncs.Load(),
	}
}

// buildHistory runs a transfer workload against a fresh durable engine
// in dir, optionally checkpointing so only a short tail outlives the
// snapshot, and closes it. It returns the committed-transaction count.
func buildHistory(dir string, dbsize, txnsPerWorker int, checkpoint bool) (int64, error) {
	db, _, err := engine.OpenDurable(dir, dbsize,
		engine.WithNodes(4),
		engine.WithWALOptions(wal.WithPreallocate(0)),
	)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	res, err := db.RunClosed(ctx, engine.Workload{
		Workers: 4, TxnsPerWorker: txnsPerWorker, TransfersPerTxn: 2, Seed: 7,
	})
	if err != nil {
		db.Close()
		return 0, err
	}
	committed := res.Committed
	if checkpoint {
		if err := db.Checkpoint(ctx); err != nil {
			db.Close()
			return 0, err
		}
		tail, err := db.RunClosed(ctx, engine.Workload{
			Workers: 2, TxnsPerWorker: 10, TransfersPerTxn: 2, Seed: 11,
		})
		if err != nil {
			db.Close()
			return 0, err
		}
		committed += tail.Committed
	}
	return committed, db.Close()
}

// benchRecovery measures recoveries/sec of reopening dir. Recovery
// does not mutate the logs, so repeated reopens replay identical state.
func benchRecovery(name, dir string, dbsize, iters int) (walEntry, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		db, _, err := engine.OpenDurable(dir, dbsize,
			engine.WithNodes(4),
			engine.WithWALOptions(wal.WithPreallocate(0)),
		)
		if err != nil {
			return walEntry{}, err
		}
		if err := db.Close(); err != nil {
			return walEntry{}, err
		}
	}
	elapsed := time.Since(start)
	return walEntry{
		Name:      name,
		Ops:       int64(iters),
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(iters),
		OpsPerSec: float64(iters) / elapsed.Seconds(),
	}, nil
}

// runWAL executes the WAL suite and returns the marshalled
// BENCH_wal.json document.
func runWAL(quick bool) ([]byte, error) {
	perCommitter := 200
	historyTxns := 1000 // per worker, 4 workers
	recoveryIters := 20
	if quick {
		perCommitter = 50
		historyTxns = 250
		recoveryIters = 8
	}
	const dbsize = 500

	rep := walReport{
		Schema:     "granulock-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	byName := make(map[string]walEntry)
	add := func(e walEntry) {
		rep.Benchmarks = append(rep.Benchmarks, e)
		byName[e.Name] = e
	}

	for _, c := range []int{1, 8, 64} {
		for _, mode := range []string{modeSyncEach, modeGroup} {
			fmt.Fprintf(os.Stderr, "bench: wal/commit/%s/c%d\n", mode, c)
			add(benchCommit(mode, c, perCommitter))
		}
	}

	// Recovery: the same class of history twice — once left as raw logs,
	// once checkpointed down to a snapshot plus a short tail.
	tmp, err := os.MkdirTemp("", "granulock-bench-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fullDir := filepath.Join(tmp, "full")
	snapDir := filepath.Join(tmp, "snap")
	if _, err := buildHistory(fullDir, dbsize, historyTxns, false); err != nil {
		return nil, fmt.Errorf("full history: %w", err)
	}
	if _, err := buildHistory(snapDir, dbsize, historyTxns, true); err != nil {
		return nil, fmt.Errorf("checkpointed history: %w", err)
	}
	fmt.Fprintln(os.Stderr, "bench: wal/recovery/full-history")
	e, err := benchRecovery("wal/recovery/full-history", fullDir, dbsize, recoveryIters)
	if err != nil {
		return nil, err
	}
	add(e)
	fmt.Fprintln(os.Stderr, "bench: wal/recovery/snapshot-bounded")
	if e, err = benchRecovery("wal/recovery/snapshot-bounded", snapDir, dbsize, recoveryIters); err != nil {
		return nil, err
	}
	add(e)

	ratio := func(name, num, den string, target float64) {
		n, okN := byName[num]
		d, okD := byName[den]
		if !okN || !okD || d.OpsPerSec <= 0 {
			return
		}
		c := lsComparison{
			Name:        name,
			Numerator:   num,
			Denominator: den,
			Speedup:     n.OpsPerSec / d.OpsPerSec,
			Target:      target,
		}
		if target > 0 {
			c.Pass = c.Speedup >= target
		}
		rep.Comparisons = append(rep.Comparisons, c)
	}
	// The single-committer cell is recorded without a floor: with no one
	// to share a sync with, group commit can only match the baseline.
	ratio("wal: group commit vs per-commit sync (1 committer)",
		"wal/commit/group/c1", "wal/commit/sync-each/c1", 0)
	ratio("wal: group commit vs per-commit sync (8 committers)",
		"wal/commit/group/c8", "wal/commit/sync-each/c8", 3.0)
	ratio("wal: group commit vs per-commit sync (64 committers)",
		"wal/commit/group/c64", "wal/commit/sync-each/c64", 3.0)
	// The recovery speedup's magnitude is a function of how much history
	// the snapshot truncates, so quick and full runs are deliberately
	// named apart: the cross-fidelity ratio diff skips them, while the
	// 2x floor still gates every fresh run via its recorded target.
	ratio(fmt.Sprintf("wal: snapshot-bounded vs full-history recovery (%d-txn history)", 4*historyTxns),
		"wal/recovery/snapshot-bounded", "wal/recovery/full-history", 2.0)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-34s %12.0f ops/s %10.0f ns/op %8d syncs\n", e.Name, e.OpsPerSec, e.NsPerOp, e.Syncs)
	}
	for _, c := range rep.Comparisons {
		status := ""
		if c.Target > 0 {
			status = fmt.Sprintf("  (target %.2gx: pass=%v)", c.Target, c.Pass)
		}
		fmt.Printf("%-58s %6.2fx%s\n", c.Name, c.Speedup, status)
	}
	return data, nil
}
