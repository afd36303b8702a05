package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenFileAppendReopenRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := OpenFile(path, WithPreallocate(4096))
	if err != nil {
		t.Fatal(err)
	}
	for txn := int64(1); txn <= 5; txn++ {
		err := l.Commit([]Record{
			{Kind: KindBegin, Txn: txn},
			{Kind: KindUpdate, Txn: txn, Entity: txn, After: txn * 10},
			{Kind: KindCommit, Txn: txn},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Seq(); got != 15 {
		t.Fatalf("Seq = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence continues, previous records recoverable.
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != 15 {
		t.Fatalf("reopened Seq = %d", got)
	}
	if err := l2.Commit([]Record{
		{Kind: KindBegin, Txn: 6},
		{Kind: KindUpdate, Txn: 6, Entity: 6, After: 60},
		{Kind: KindCommit, Txn: 6},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	r, c, err := tailReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	state := map[int64]int64{}
	stats, err := RecoverSet([]*Reader{r}, func(e, v int64) { state[e] = v })
	if err != nil || stats.Committed != 6 || stats.Logs[0].Torn {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
	for e := int64(1); e <= 6; e++ {
		if state[e] != e*10 {
			t.Fatalf("entity %d = %d", e, state[e])
		}
	}
}

func TestOpenFilePreallocatedTailIgnored(t *testing.T) {
	// The preallocated zero region must not read as records.
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := OpenFile(path, WithPreallocate(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit([]Record{{Kind: KindBegin, Txn: 1}, {Kind: KindCommit, Txn: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 1<<16 {
		t.Fatalf("file size %d, want preallocated 1<<16", info.Size())
	}
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Seq(); got != 2 {
		t.Fatalf("Seq = %d, want 2 (zero fill must not count)", got)
	}
}

func TestOpenFileRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	if err := os.WriteFile(path, []byte("not a wal header....."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt header: %v", err)
	}
}

func TestLogTruncateDropsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, err := OpenFile(path, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	for txn := int64(1); txn <= 10; txn++ {
		if err := l.Commit([]Record{
			{Kind: KindBegin, Txn: txn},
			{Kind: KindUpdate, Txn: txn, Entity: txn, After: txn},
			{Kind: KindCommit, Txn: txn},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the first 4 transactions (12 records).
	if err := l.Truncate(12); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 12 || l.Seq() != 30 {
		t.Fatalf("base %d seq %d", l.Base(), l.Seq())
	}
	// The log still accepts appends after truncation.
	if err := l.Commit([]Record{
		{Kind: KindBegin, Txn: 11},
		{Kind: KindUpdate, Txn: 11, Entity: 11, After: 11},
		{Kind: KindCommit, Txn: 11},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tail from the truncation point holds txns 5..11 only.
	r, c, err := tailReader(path, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	state := map[int64]int64{}
	stats, err := RecoverSet([]*Reader{r}, func(e, v int64) { state[e] = v })
	if err != nil || stats.Committed != 7 {
		t.Fatalf("recover after truncate: %+v, %v", stats, err)
	}
	if state[4] != 0 || state[5] != 5 || state[11] != 11 {
		t.Fatalf("state %v", state)
	}
	// Replaying from before the truncation point must fail loudly.
	if _, _, err := tailReader(path, 5); err == nil {
		t.Fatal("tailReader before base succeeded")
	}
	// Truncating beyond durable or re-truncating behind base are
	// rejected / no-ops.
	l3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if err := l3.Truncate(9999); err == nil {
		t.Fatal("truncate beyond durable accepted")
	}
	if err := l3.Truncate(3); err != nil {
		t.Fatalf("truncate behind base should be a no-op: %v", err)
	}
}

func TestDirCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 3, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Set()
	// Txns 1..6 round-robin over partitions.
	for txn := int64(1); txn <= 6; txn++ {
		p := int(txn) % 3
		if err := s.Commit([]PartGroup{{Part: p, Records: []Record{
			{Kind: KindBegin, Txn: txn},
			{Kind: KindUpdate, Txn: txn, Entity: txn, After: txn * 100},
			{Kind: KindCommit, Txn: txn},
		}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint the state so far.
	snap := &Snapshot{Seqs: s.Seqs()}
	for e := int64(1); e <= 6; e++ {
		snap.Entries = append(snap.Entries, SnapshotEntry{Entity: e, Value: e * 100})
	}
	if err := d.Install(snap); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic.
	if err := s.Commit([]PartGroup{{Part: 1, Records: []Record{
		{Kind: KindBegin, Txn: 7},
		{Kind: KindUpdate, Txn: 7, Entity: 1, After: 111},
		{Kind: KindCommit, Txn: 7},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: snapshot entries plus the tail txn.
	d2, err := OpenDir(dir, 3, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	state := map[int64]int64{}
	stats, err := d2.Recover(func(e, v int64) { state[e] = v })
	if err != nil {
		t.Fatal(err)
	}
	// Only txn 7 should replay from the logs.
	if stats.Committed != 1 {
		t.Fatalf("tail committed %d, want 1 (stats %+v)", stats.Committed, stats)
	}
	if state[1] != 111 || state[2] != 200 || state[6] != 600 {
		t.Fatalf("state %v", state)
	}
	// Logs were physically truncated: bases match the snapshot seqs.
	for k := 0; k < 3; k++ {
		if d2.Set().Log(k).Base() == 0 && d2.Set().Log(k).Seq() > 0 {
			t.Fatalf("log %d not truncated (base 0, seq %d)", k, d2.Set().Log(k).Seq())
		}
	}
}

func TestDirRecoverNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 2, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Set().Commit([]PartGroup{{Part: 0, Records: []Record{
		{Kind: KindBegin, Txn: 1},
		{Kind: KindUpdate, Txn: 1, Entity: 0, After: 5},
		{Kind: KindCommit, Txn: 1},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir, 2, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	state := map[int64]int64{}
	if _, err := d2.Recover(func(e, v int64) { state[e] = v }); err != nil {
		t.Fatal(err)
	}
	if state[0] != 5 {
		t.Fatalf("state %v", state)
	}
}

func TestDirPartitionCountMismatch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 3, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, 2, WithPreallocate(0)); err == nil {
		t.Fatal("narrowing partition count accepted")
	}
}

// TestOpenDirFailureStopsFlushers: a log that fails to open leaves no
// flusher goroutine behind for the logs opened before it.
func TestOpenDirFailureStopsFlushers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, 2, WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath(dir, 1), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("NOTAWAL!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := OpenDir(dir, 2, WithPreallocate(0)); err == nil {
			t.Fatal("a log with a corrupt header opened")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after five failed opens, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDirInstallFailpoints(t *testing.T) {
	// Crash at each install stage; recovery must always see either the
	// old or the new snapshot, never a broken directory.
	stages := []string{"snapshot-tmp", "snapshot-installed", "truncate-0", "truncate-1"}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDir(dir, 2, WithPreallocate(0))
			if err != nil {
				t.Fatal(err)
			}
			s := d.Set()
			for txn := int64(1); txn <= 4; txn++ {
				p := int(txn) % 2
				if err := s.Commit([]PartGroup{{Part: p, Records: []Record{
					{Kind: KindBegin, Txn: txn},
					{Kind: KindUpdate, Txn: txn, Entity: txn, After: txn},
					{Kind: KindCommit, Txn: txn},
				}}}); err != nil {
					t.Fatal(err)
				}
			}
			snap := &Snapshot{Seqs: s.Seqs()}
			for e := int64(1); e <= 4; e++ {
				snap.Entries = append(snap.Entries, SnapshotEntry{Entity: e, Value: e})
			}
			boom := errors.New("crash")
			d.SetFailpoint(func(got string) error {
				if got == stage {
					return boom
				}
				return nil
			})
			if err := d.Install(snap); !errors.Is(err, boom) {
				t.Fatalf("install: %v", err)
			}
			d.Close()

			d2, err := OpenDir(dir, 2, WithPreallocate(0))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			state := map[int64]int64{}
			if _, err := d2.Recover(func(e, v int64) { state[e] = v }); err != nil {
				t.Fatalf("recover after crash at %s: %v", stage, err)
			}
			for e := int64(1); e <= 4; e++ {
				if state[e] != e {
					t.Fatalf("crash at %s: state %v", stage, state)
				}
			}
		})
	}
}

func TestDirFaultInjectorTearsEverything(t *testing.T) {
	// A shared injector with a byte budget: every log and the snapshot
	// die at one moment; reopening without the injector recovers a
	// consistent prefix. Sweep budgets to cut at many distinct points,
	// including inside snapshot staging.
	for budget := int64(0); budget < 3000; budget += 127 {
		var left atomic.Int64
		left.Store(budget)
		inject := FaultInjector(func(op string, n int) (int, error) {
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
		d, err := OpenDir(dir, 2, WithPreallocate(0), WithFaultInjector(inject))
		if err != nil {
			t.Fatal(err)
		}
		s := d.Set()
		// Balance-preserving transfers: entity 2k on part 0, 2k+1 on
		// part 1, each starting at 100.
		alive := true
		for txn := int64(1); txn <= 8 && alive; txn++ {
			mask := Mask(0, 1)
			err := s.Commit([]PartGroup{
				{Part: 0, Records: []Record{
					{Kind: KindBegin, Txn: txn},
					{Kind: KindUpdate, Txn: txn, Entity: 0, Before: 100, After: 100 - txn},
					{Kind: KindCommit, Txn: txn, Entity: mask},
				}},
				{Part: 1, Records: []Record{
					{Kind: KindBegin, Txn: txn},
					{Kind: KindUpdate, Txn: txn, Entity: 1, Before: 100, After: 100 + txn},
					{Kind: KindCommit, Txn: txn, Entity: mask},
				}},
			})
			if err != nil {
				alive = false
			}
			// Mid-run checkpoint attempt, also under the injector.
			if txn == 4 && alive {
				snap := &Snapshot{Seqs: s.Seqs(), Entries: []SnapshotEntry{
					{Entity: 0, Value: 100 - txn}, {Entity: 1, Value: 100 + txn},
				}}
				if err := d.Install(snap); err != nil {
					alive = false
				}
			}
		}
		d.Close()

		// "Reboot": reopen without the injector and recover.
		d2, err := OpenDir(dir, 2, WithPreallocate(0))
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		state := map[int64]int64{0: 100, 1: 100}
		if _, err := d2.Recover(func(e, v int64) { state[e] = v }); err != nil {
			t.Fatalf("budget %d: recover: %v", budget, err)
		}
		if state[0]+state[1] != 200 {
			t.Fatalf("budget %d: transfer invariant broken: %v", budget, state)
		}
		d2.Close()
	}
}
