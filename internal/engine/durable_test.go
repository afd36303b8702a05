package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"granulock/internal/engine/cc"
	"granulock/internal/wal"
)

// durableWorkload is the standard traffic for the durability tests:
// balance-preserving transfers over a 4-node database.
func durableWorkload(seed uint64) Workload {
	return Workload{
		Workers:         4,
		TxnsPerWorker:   40,
		TransfersPerTxn: 2,
		Seed:            seed,
	}
}

func TestOpenDurableRoundTripAllProtocols(t *testing.T) {
	// Every registered protocol must produce logs whose recovery
	// reproduces the live state — the publish contract (persist before
	// release) is what makes this hold, so the test doubles as a
	// contract check for protocols added later.
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			dir := t.TempDir()
			db, stats := openWAL(t, dir, protocol, walNodes)
			if stats.Committed != 0 {
				t.Fatalf("fresh dir recovered %d commits", stats.Committed)
			}
			if _, err := db.RunClosed(context.Background(), durableWorkload(12)); err != nil {
				t.Fatal(err)
			}
			want := make([]int64, walDBSize)
			for e := range want {
				want[e], _ = db.Read(e)
			}
			committed := db.Stats().Committed
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, stats := openWAL(t, dir, protocol, walNodes)
			defer db2.Close()
			if int64(stats.Committed) != committed {
				// Read-only txns never log, so every logged txn is an update.
				t.Fatalf("recovered %d commits, live engine committed %d", stats.Committed, committed)
			}
			for e := range want {
				got, _ := db2.Read(e)
				if got != want[e] {
					t.Fatalf("entity %d: recovered %d, want %d", e, got, want[e])
				}
			}
			// A clean shutdown leaves nothing torn, in flight, or split
			// across the ordering rule.
			if stats.Incomplete != 0 || stats.CrossPartial != 0 || stats.OrderViolations != 0 {
				t.Fatalf("clean log stats %+v", stats)
			}
			for k, l := range stats.Logs {
				if l.Torn {
					t.Fatalf("log %d torn after clean shutdown", k)
				}
			}
		})
	}
}

func TestOpenDurableCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, 120,
		WithNodes(3), WithGranules(12), WithInitialValue(100),
		WithWALOptions(wal.WithPreallocate(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunClosed(context.Background(), durableWorkload(13)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic is the only thing recovery should replay.
	post, err := db.RunClosed(context.Background(), Workload{
		Workers: 2, TxnsPerWorker: 5, TransfersPerTxn: 1, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 120)
	for e := range want {
		want[e], _ = db.Read(e)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, stats, err := OpenDurable(dir, 120,
		WithNodes(3), WithGranules(12), WithInitialValue(100),
		WithWALOptions(wal.WithPreallocate(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if int64(stats.Committed) > post.Committed {
		t.Fatalf("replayed %d txns, checkpoint should bound it to the %d post-checkpoint ones",
			stats.Committed, post.Committed)
	}
	for e := range want {
		got, _ := db2.Read(e)
		if got != want[e] {
			t.Fatalf("entity %d: recovered %d, want %d", e, got, want[e])
		}
	}
	// The logs were physically truncated: non-zero bases.
	var advanced bool
	for k := 0; k < db2.WALDir().Set().Len(); k++ {
		if db2.WALDir().Set().Log(k).Base() > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatal("no log base advanced past 0 after checkpoint")
	}
}

// copyDir clones a WAL directory so a cut can be applied to the clone.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDurableCrashCutsAcrossSnapshotAndTailBoundary(t *testing.T) {
	// Build a directory holding a snapshot plus post-checkpoint tails,
	// then cut the artifacts at many byte offsets:
	//   - log tails cut anywhere → recovery conserves the total balance
	//     (the crash model: appends can tear);
	//   - snapshot cut anywhere → recovery fails loudly (the crash
	//     model: the rename is atomic, so a torn snapshot under the
	//     live name is damage, not a crash, and must never be
	//     silently half-loaded).
	const dbsize = 60
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, dbsize,
		WithNodes(2), WithGranules(6), WithInitialValue(100),
		WithWALOptions(wal.WithPreallocate(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunClosed(context.Background(), Workload{
		Workers: 2, TxnsPerWorker: 10, TransfersPerTxn: 2, Seed: 15,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunClosed(context.Background(), Workload{
		Workers: 2, TxnsPerWorker: 10, TransfersPerTxn: 2, Seed: 16,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wantTotal := int64(dbsize) * 100

	reopen := func(dir string) (*DB, wal.SetRecoverStats, error) {
		return OpenDurable(dir, dbsize,
			WithNodes(2), WithGranules(6), WithInitialValue(100),
			WithWALOptions(wal.WithPreallocate(0)))
	}

	// Tail cuts: every byte of the header region and the first records
	// (the snapshot/tail boundary), then a prime stride through the
	// rest, ending exactly at the file length.
	for k := 0; k < 2; k++ {
		name := "wal-" + string(rune('0'+k)) + ".log"
		orig, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		cuts := map[int]bool{len(orig): true}
		for cut := 0; cut <= wal.LogHeaderSize+3*wal.RecordSize && cut <= len(orig); cut++ {
			cuts[cut] = true
		}
		for cut := wal.LogHeaderSize; cut < len(orig); cut += 13 {
			cuts[cut] = true
		}
		for cut := range cuts {
			clone := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(clone, name), orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			db2, _, err := reopen(clone)
			if cut > 0 && cut < wal.LogHeaderSize {
				// Torn header: must refuse, not misread. (An empty file
				// is a fresh log, handled below: the snapshot still
				// covers the pre-checkpoint state and the mask rule
				// discards the lost partition's tail transactions.)
				if err == nil {
					db2.Close()
					t.Fatalf("log %d cut %d: torn header accepted", k, cut)
				}
				continue
			}
			if err != nil {
				t.Fatalf("log %d cut %d: %v", k, cut, err)
			}
			if got := db2.TotalBalance(); got != wantTotal {
				t.Fatalf("log %d cut %d: total %d, want %d", k, cut, got, wantTotal)
			}
			db2.Close()
		}
	}

	// Snapshot cuts: stride through every region (header, seq vector,
	// chunk bodies, final checksum).
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(snap); cut += 7 {
		clone := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(clone, "snapshot.snap"), snap[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, _, err := reopen(clone)
		if err == nil {
			db2.Close()
			t.Fatalf("snapshot cut %d: torn snapshot accepted", cut)
		}
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("snapshot cut %d: error %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestDurableFaultInjectionConservesBalance(t *testing.T) {
	// The in-process "power cut": a shared injector lets a random
	// number of bytes through, allows one final torn write, then fails
	// everything — all partition logs and any in-flight snapshot die at
	// the same moment. Reopening without the injector must always
	// recover a balance-conserving state.
	const dbsize = 40
	for budget := int64(0); budget < 4000; budget += 211 {
		var left atomic.Int64
		left.Store(budget)
		inject := wal.FaultInjector(func(op string, n int) (int, error) {
			if op == "sync" {
				if left.Load() <= 0 {
					return 0, errors.New("power lost")
				}
				return 0, nil
			}
			got := left.Add(int64(-n))
			if got < 0 {
				allow := got + int64(n)
				if allow < 0 {
					allow = 0
				}
				return int(allow), errors.New("power lost")
			}
			return n, nil
		})

		dir := t.TempDir()
		db, _, err := OpenDurable(dir, dbsize,
			WithNodes(2), WithGranules(4), WithInitialValue(100),
			WithWALOptions(wal.WithPreallocate(0), wal.WithFaultInjector(inject)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for txn := 0; txn < 30; txn++ {
			from := txn % dbsize
			to := (txn*7 + 1) % dbsize
			if from == to {
				to = (to + 1) % dbsize
			}
			if _, err := db.Execute(ctx, Transfer(from, to, 3)); err != nil {
				break // the "crash"
			}
			if txn == 10 {
				if err := db.Checkpoint(ctx); err != nil {
					break
				}
			}
		}
		db.Close()

		db2, _, err := OpenDurable(dir, dbsize,
			WithNodes(2), WithGranules(4), WithInitialValue(100),
			WithWALOptions(wal.WithPreallocate(0)))
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		if got := db2.TotalBalance(); got != int64(dbsize)*100 {
			t.Fatalf("budget %d: total %d, want %d", budget, got, int64(dbsize)*100)
		}
		db2.Close()
	}
}

func TestPersistFailurePropagatesToExecute(t *testing.T) {
	// A poisoned log must surface as a commit error, never as a
	// silently-acknowledged transaction.
	failSync := wal.FaultInjector(func(op string, n int) (int, error) {
		if op == "sync" {
			return 0, errors.New("injected sync failure")
		}
		return n, nil
	})
	db, _, err := OpenDurable(t.TempDir(), 10, WithInitialValue(100),
		WithWALOptions(wal.WithPreallocate(0), wal.WithFaultInjector(failSync)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(context.Background(), Transfer(0, 1, 5)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("execute on poisoned log: %v", err)
	}
	if err := db.Close(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("close of poisoned database: %v", err)
	}
}

func TestOpenDurableRejectedConfigLeavesNoDir(t *testing.T) {
	// Validation comes before the directory is touched: a rejected
	// configuration must not leave log files (1 MiB preallocated per
	// node) behind.
	for name, opt := range map[string]Option{
		"protocol":   WithProtocol("nope"),
		"granules":   WithGranules(0),
		"nodes":      WithNodes(0),
		"partitions": WithNodes(wal.MaxPartitions + 1),
	} {
		dir := filepath.Join(t.TempDir(), "wal")
		if db, _, err := OpenDurable(dir, 100, opt); err == nil {
			db.Close()
			t.Fatalf("%s: invalid configuration accepted", name)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: rejected configuration left %s behind (stat err %v)", name, dir, err)
		}
	}
}

func TestOpenDurableContinuesTxnNumbering(t *testing.T) {
	// Reopen-and-extend cycles over one directory: every recovery must
	// see at least the commits the previous one did. Regression test —
	// OpenDurable used to restart transaction IDs at zero, so a second
	// run's transactions collided with surviving log records and merged
	// two unrelated transactions into one corrupt classification.
	dir := t.TempDir()
	prev := 0
	for cycle := 0; cycle < 3; cycle++ {
		db, stats, err := OpenDurable(dir, 60,
			WithNodes(3), WithGranules(6), WithInitialValue(100),
			WithWALOptions(wal.WithPreallocate(0)))
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if stats.Committed < prev {
			t.Fatalf("cycle %d: recovered commits shrank %d -> %d (txn IDs reused)",
				cycle, prev, stats.Committed)
		}
		if cycle > 0 && int64(stats.MaxTxn) == 0 {
			t.Fatalf("cycle %d: MaxTxn 0 with %d commits on disk", cycle, stats.Committed)
		}
		if got := db.TotalBalance(); got != 6000 {
			t.Fatalf("cycle %d: balance %d", cycle, got)
		}
		if _, err := db.RunClosed(context.Background(), Workload{
			Workers: 2, TxnsPerWorker: 10, TransfersPerTxn: 1, Seed: uint64(20 + cycle),
		}); err != nil {
			t.Fatal(err)
		}
		prev = stats.Committed + 20
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
