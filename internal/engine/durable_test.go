package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"granulock/internal/engine/cc"
	"granulock/internal/lockmgr"
	"granulock/internal/obs"
	"granulock/internal/rng"
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
	//   - both log tails cut, as a pair, at points a crash can leave
	//     them in → recovery conserves the total balance (the crash
	//     model: appends can tear);
	//   - one log's header torn → recovery refuses;
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
	// The tail is written one transaction at a time, with both logs'
	// lengths noted in between. A commit appends to log 0 and waits for
	// it to be durable before it appends to log 1 (wal.Set.Commit), and
	// nothing else is writing, so the states a crash can leave are
	// exactly: log 0 cut anywhere inside the transaction's append with
	// log 1 not yet touched, or log 0 whole with log 1 cut anywhere
	// inside its append. (Cutting one log with the other whole is not
	// among them — a later transaction that read what a discarded one
	// wrote survives on the whole log — and recovery owes it nothing.)
	logNames := [2]string{"wal-0.log", "wal-1.log"}
	sizes := func() (n [2]int) {
		for k, name := range logNames {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n[k] = int(fi.Size())
		}
		return n
	}
	const tailTxns = 16
	marks := [][2]int{sizes()}
	for i := 0; i < tailTxns; i++ {
		if _, err := db.RunClosed(context.Background(), Workload{
			Workers: 1, TxnsPerWorker: 1, TransfersPerTxn: 2, Seed: uint64(16 + i),
		}); err != nil {
			t.Fatal(err)
		}
		marks = append(marks, sizes())
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
	var orig [2][]byte
	for k, name := range logNames {
		if orig[k], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if last := marks[tailTxns]; last != [2]int{len(orig[0]), len(orig[1])} || last == marks[0] {
		t.Fatalf("log lengths %d/%d, noted %v after the tail and %v before it", len(orig[0]), len(orig[1]), last, marks[0])
	}

	// Paired tail cuts: every byte of the first transactions' appends
	// (the snapshot/tail boundary), then a prime stride, always with
	// both ends of each append.
	cutPair := func(c0, c1 int) {
		t.Helper()
		clone := copyDir(t, dir)
		for k, c := range [2]int{c0, c1} {
			if err := os.WriteFile(filepath.Join(clone, logNames[k]), orig[k][:c], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db2, _, err := reopen(clone)
		if err != nil {
			t.Fatalf("logs cut at %d/%d: %v", c0, c1, err)
		}
		defer db2.Close()
		if got := db2.TotalBalance(); got != wantTotal {
			t.Fatalf("logs cut at %d/%d: total %d, want %d", c0, c1, got, wantTotal)
		}
	}
	crossLog := 0
	for i := 0; i < tailTxns; i++ {
		from, to := marks[i], marks[i+1]
		if to[0] > from[0] && to[1] > from[1] {
			crossLog++
		}
		stride := 13
		if i < 2 {
			stride = 1
		}
		for c0 := from[0]; c0 < to[0]; c0 += stride {
			cutPair(c0, from[1])
		}
		for c1 := from[1]; c1 < to[1]; c1 += stride {
			cutPair(to[0], c1)
		}
	}
	cutPair(len(orig[0]), len(orig[1]))
	if crossLog == 0 {
		t.Fatal("no tail transaction wrote to both logs: the cross-log cuts tested nothing")
	}

	// A torn header on either log, the other whole: must refuse, not
	// misread.
	for k, name := range logNames {
		for cut := 1; cut < wal.LogHeaderSize; cut++ {
			clone := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(clone, name), orig[k][:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if db2, _, err := reopen(clone); err == nil {
				db2.Close()
				t.Fatalf("log %d cut %d: torn header accepted", k, cut)
			}
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

// powerCut is the in-process power cut of the durable fault tests: one
// injector shared by every partition log and the snapshot writer lets
// budget bytes through, tears the write that crosses zero (its
// in-budget bytes still land) and fails everything after, syncs
// included, so all logs and any in-flight snapshot die at one instant.
func powerCut(budget int64) wal.FaultInjector {
	var left atomic.Int64
	left.Store(budget)
	return func(op string, n int) (int, error) {
		if op == "sync" {
			if left.Load() <= 0 {
				return 0, errors.New("power lost")
			}
			return 0, nil
		}
		got := left.Add(int64(-n))
		if got < 0 {
			return int(max(got+int64(n), 0)), errors.New("power lost")
		}
		return n, nil
	}
}

func TestDurableFaultInjectionConservesBalance(t *testing.T) {
	// Reopening after a power cut at any byte budget must always recover
	// a balance-conserving state.
	const dbsize = 40
	for budget := int64(0); budget < 4000; budget += 211 {
		dir := t.TempDir()
		db, _, err := OpenDurable(dir, dbsize,
			WithNodes(2), WithGranules(4), WithInitialValue(100),
			WithWALOptions(wal.WithPreallocate(0), wal.WithFaultInjector(powerCut(budget))))
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

// TestDurablePowerCutCycles kills a durable engine again and again over
// one reused WAL directory. Each cycle reopens the directory behind a
// power cut with a random byte budget, sometimes arms a checkpoint
// failpoint at one of the snapshot-install stages, and streams
// transfers from concurrent workers with a checkpoint halfway; the
// first error anywhere is the crash, and the cycle abandons the engine
// as a killed process would. After every cycle the directory must
// reopen without the injector and conserve the total balance, whatever
// the crash tore. Across the seeds at least one cycle must die at a
// failpoint and one before it acknowledged anything, so the test cannot
// pass without exercising both ends of a cycle.
func TestDurablePowerCutCycles(t *testing.T) {
	const (
		dbsize   = 300
		granules = 30
		nodes    = 3
		workers  = 4
		cycles   = 6
		txns     = 20 // transfers per worker per cycle
	)
	open := func(dir string, walOpts ...wal.LogOption) (*DB, error) {
		db, _, err := OpenDurable(dir, dbsize,
			WithNodes(nodes), WithGranules(granules), WithInitialValue(100),
			WithWALOptions(append(walOpts, wal.WithPreallocate(0))...))
		return db, err
	}
	// The budget ceiling is about twice one cycle's write volume (its
	// records plus one snapshot), so cuts land early, mid-traffic and
	// mid-snapshot, and some cycles survive untouched.
	estimate := workers*txns*(4+nodes)*wal.RecordSize + dbsize*16 + 4096
	stages := []string{"snapshot-tmp", "snapshot-installed", "truncate-0"}

	var failpointKills, unackedCuts int
	for _, seed := range []uint64{1, 2, 3, 4} {
		dir := t.TempDir()
		src := rng.New(seed)
		for cycle := 0; cycle < cycles; cycle++ {
			budget := int64(src.Intn(2 * estimate))
			if src.Intn(6) == 0 {
				// Cut inside the first record the reopened engine
				// writes: OpenDurable itself writes nothing.
				budget = int64(src.Intn(wal.RecordSize))
			}
			stage := ""
			if src.Intn(3) == 0 {
				stage = stages[src.Intn(len(stages))]
			}
			var acked int64
			if db, err := open(dir, wal.WithFaultInjector(powerCut(budget))); err == nil {
				var killed atomic.Bool
				if stage != "" {
					db.WALDir().SetFailpoint(func(s string) error {
						if s != stage {
							return nil
						}
						killed.Store(true)
						return errors.New("failpoint: killed at " + s)
					})
				}
				acked = powerCutTraffic(db, src, workers, txns/2)
				if killed.Load() {
					failpointKills++
				}
				db.Close() // a poisoned close only reports the poison
			}
			if acked == 0 {
				unackedCuts++
			}

			db, err := open(dir)
			if err != nil {
				t.Fatalf("seed %d cycle %d (budget %d, failpoint %q): recovery: %v", seed, cycle, budget, stage, err)
			}
			got := db.TotalBalance()
			db.Close()
			if want := int64(dbsize * 100); got != want {
				t.Fatalf("seed %d cycle %d (budget %d, failpoint %q): recovered balance %d, want %d",
					seed, cycle, budget, stage, got, want)
			}
		}
	}
	t.Logf("%d failpoint kills, %d cuts before the first acknowledged commit", failpointKills, unackedCuts)
	if failpointKills == 0 || unackedCuts == 0 {
		t.Fatalf("%d failpoint kills and %d cuts before the first acknowledged commit across the seeds: want at least one of each",
			failpointKills, unackedCuts)
	}
}

// powerCutTraffic streams two halves of txns transfers per worker into
// db, with a checkpoint between them, until the first error: the
// crash, after which nothing touches db but Close. It returns the
// number of transfers acknowledged.
func powerCutTraffic(db *DB, src *rng.Source, workers, txns int) int64 {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var acked atomic.Int64
	var crashed atomic.Bool
	half := func(h int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			r := src.Stream(uint64(2*w + h + 1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < txns && !crashed.Load(); i++ {
					from, to := r.Intn(db.cfg.DBSize), r.Intn(db.cfg.DBSize-1)
					if to >= from {
						to++
					}
					if _, err := db.Execute(ctx, Transfer(from, to, int64(1+r.Intn(5)))); err != nil {
						crashed.Store(true)
						cancel()
						return
					}
					acked.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	half(0)
	if !crashed.Load() && db.Checkpoint(ctx) == nil {
		half(1)
	}
	return acked.Load()
}

// TestCheckpointRestartsAreCounted: a checkpoint runs on Execute's
// attempt loop, so a protocol that restarts it is counted like any other
// attempt. Under wait-die, a checkpoint younger than a transaction
// holding a granule exclusively dies at that granule and retries until
// the holder ends; its deaths land in Stats.Restarts and in
// granulock_engine_restarts_total, and its commit in Stats.Committed.
func TestCheckpointRestartsAreCounted(t *testing.T) {
	reg := obs.NewRegistry()
	db, _, err := OpenDurable(t.TempDir(), 40, WithProtocol(WaitDie), WithGranules(4),
		WithInitialValue(100), WithMetrics(reg), WithWALOptions(wal.WithPreallocate(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	// The holder takes its identity first, so it is older than every
	// attempt of the checkpoint.
	id := lockmgr.TxnID(db.nextTxn.Add(1))
	holder := &cc.Tx{ID: id, Priority: int64(id)}
	reqs := []lockmgr.Request{{Granule: db.GranuleOf(39), Mode: lockmgr.ModeExclusive}}
	if err := db.inst.Acquire(db.inst.Begin(ctx, holder), holder, reqs); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.Checkpoint(ctx) }()
	for db.Stats().Dies == 0 {
		runtime.Gosched()
	}
	db.inst.End(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Dies < 1 || s.Restarts < s.Dies {
		t.Fatalf("checkpoint died %d times, engine counted %d restarts: want restarts >= dies >= 1", s.Dies, s.Restarts)
	}
	if s.Committed != 1 {
		t.Fatalf("committed %d, want the checkpoint's 1", s.Committed)
	}
	if got, _ := reg.Value("granulock_engine_restarts_total", map[string]string{"cause": "die"}); got != float64(s.Dies) {
		t.Fatalf("granulock_engine_restarts_total{cause=die} = %v, want %d", got, s.Dies)
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
