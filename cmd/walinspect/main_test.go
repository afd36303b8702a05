package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"granulock/internal/engine"
	"granulock/internal/wal"
)

func writeLog(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	log := wal.NewLog(&buf)
	if err := log.Commit([]wal.Record{
		{Kind: wal.KindBegin, Txn: 1},
		{Kind: wal.KindUpdate, Txn: 1, Entity: 3, Before: 10, After: 20},
		{Kind: wal.KindCommit, Txn: 1},
		{Kind: wal.KindBegin, Txn: 2},
		{Kind: wal.KindBegin, Txn: 3},
		{Kind: wal.KindUpdate, Txn: 3, Entity: 3, Before: 20, After: 30},
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.wal")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func capture(t *testing.T, path string, verbose, verify bool) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := run(path, verbose, verify, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSummary(t *testing.T) {
	// Of the two unfinished transactions only txn 3 (Begin + Update)
	// counts as incomplete; txn 2's bare Begin is not counted, as in
	// recovery.
	out := capture(t, writeLog(t), false, false)
	for _, want := range []string{"partition   0", "records     6 (1 commit, 0 abort)", "committed   1", "incomplete  1 with updates", "torn tail   false"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestVerboseDumpsRecords(t *testing.T) {
	out := capture(t, writeLog(t), true, false)
	if !strings.Contains(out, "entity 3: 10 -> 20") {
		t.Fatalf("verbose dump missing update:\n%s", out)
	}
	if !strings.Contains(out, "commit") {
		t.Fatalf("verbose dump missing commit:\n%s", out)
	}
}

func TestMissingFile(t *testing.T) {
	if err := run("/nonexistent/path.wal", false, false, os.Stdout); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestInspectHeaderedLogFile checks that a wal.OpenFile log (GWALLOG1
// header) is recognized and summarized with its base sequence number.
func TestInspectHeaderedLogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grants.log")
	log, err := wal.OpenFile(path, wal.WithPreallocate(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Commit([]wal.Record{
		{Kind: wal.KindBegin, Txn: 1},
		{Kind: wal.KindUpdate, Txn: 1, Entity: 9, Before: 0, After: 5},
		{Kind: wal.KindCommit, Txn: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	out := capture(t, path, true, false)
	for _, want := range []string{"log file    GWALLOG1 (base seq 0)", "entity 9: 0 -> 5", "records     3", "committed   1", "max txn     1"} {
		if !strings.Contains(out, want) {
			t.Errorf("log-file inspection missing %q:\n%s", want, out)
		}
	}
}

// TestInspectSnapshotFile checks the GWALSNP1 header dump, including
// the -v entry listing.
func TestInspectSnapshotFile(t *testing.T) {
	s := &wal.Snapshot{
		Seqs:    []int64{10, 0, 7},
		Entries: []wal.SnapshotEntry{{Entity: 4, Value: 40}, {Entity: 5, Value: 50}},
	}
	path := filepath.Join(t.TempDir(), "snapshot.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := capture(t, path, true, false)
	for _, want := range []string{"snapshot    GWALSNP1, 3 logs, 2 entries", "seq vector  [10 0 7]", "entity 4", "= 50"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot inspection missing %q:\n%s", want, out)
		}
	}
}

// TestInspectDirAndVerify builds a real durable engine directory — two
// partition logs, a mid-life checkpoint, a tail past it — and checks
// both the static per-log summary and the -verify replay report.
func TestInspectDirAndVerify(t *testing.T) {
	dir := t.TempDir()
	db, _, err := engine.OpenDurable(dir, 40,
		engine.WithNodes(2),
		engine.WithWALOptions(wal.WithPreallocate(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	transfer := func(from, to int) {
		t.Helper()
		if _, err := db.Execute(ctx, engine.Transfer(from, to, 1)); err != nil {
			t.Fatal(err)
		}
	}
	transfer(0, 1) // cross-partition: nodes 0 and 1
	transfer(2, 3)
	if err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	transfer(4, 5) // tail past the snapshot
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	out := capture(t, dir, false, false)
	for _, want := range []string{"2 partition logs", "snapshot    GWALSNP1", "log 0", "log 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dir inspection missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "verify") {
		t.Fatalf("verify output without -verify:\n%s", out)
	}

	out = capture(t, dir, false, true)
	if !strings.Contains(out, "verify      recovered seqs") {
		t.Fatalf("-verify missing recovered seqs:\n%s", out)
	}
	if !strings.Contains(out, "verify      committed 1 ") {
		// Only the post-checkpoint transfer replays from the logs; the
		// first two live in the snapshot.
		t.Fatalf("-verify committed count wrong:\n%s", out)
	}
	if !strings.Contains(out, "cross-partition partials 0, order violations 0") {
		t.Fatalf("-verify reported damage on a clean directory:\n%s", out)
	}
}

// TestInspectPartitionFileOfCrossPartitionCommit inspects one partition
// file of a directory holding a cross-partition commit: one log cannot
// tell whether the commit record reached every log of its mask, so the
// per-file summary must not count the transaction as committed and
// redone — it reports it for -verify on the directory.
func TestInspectPartitionFileOfCrossPartitionCommit(t *testing.T) {
	dir := t.TempDir()
	db, _, err := engine.OpenDurable(dir, 40,
		engine.WithNodes(2),
		engine.WithWALOptions(wal.WithPreallocate(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tr := range [][2]int{{0, 1}, {1, 3}} { // nodes 0+1, then node 1 alone
		if _, err := db.Execute(ctx, engine.Transfer(tr[0], tr[1], 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	out := capture(t, filepath.Join(dir, "wal-1.log"), false, false)
	for _, want := range []string{
		"partition   1",
		"records     7 (2 commit, 0 abort)",
		"committed   1 transactions (2 updates would be redone)",
		"cross-part  1 commits name other partitions: needs -verify on the directory",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("wal-1.log summary missing %q:\n%s", want, out)
		}
	}
	out = capture(t, filepath.Join(dir, "wal-0.log"), false, false)
	for _, want := range []string{"committed   0 transactions (0 updates", "cross-part  1 commits"} {
		if !strings.Contains(out, want) {
			t.Errorf("wal-0.log summary missing %q:\n%s", want, out)
		}
	}
}

// TestPartitionIndexNeedsExactName: only a file named exactly
// wal-<k>.log is placed at k; a copy, a backup or a journal is 0.
func TestPartitionIndexNeedsExactName(t *testing.T) {
	for name, want := range map[string]int{
		"wal-0.log": 0, "wal-3.log": 3, "dir/wal-63.log": 63,
		"wal-3.log.bak": 0, "wal-03.log": 0, "wal-+3.log": 0, "wal-64.log": 0,
		"xwal-3.log": 0, "grants.log": 0, "test.wal": 0,
	} {
		if got := partitionIndex(name); got != want {
			t.Errorf("partitionIndex(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestInspectEmptyDir rejects a directory with no partition logs.
func TestInspectEmptyDir(t *testing.T) {
	if err := run(t.TempDir(), false, false, os.Stdout); err == nil {
		t.Fatal("empty directory accepted")
	}
}
