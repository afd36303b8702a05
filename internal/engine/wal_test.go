package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"granulock/internal/wal"
)

// The write-ahead tests run one shape of database: 200 entities seeded
// with 100 each, over 4 nodes (so 4 logs) unless a test needs one log.
const (
	walNodes   = 4
	walDBSize  = 200
	walInitial = 100
)

// WALDir returns the database's write-ahead directory, or nil unless
// the database was opened with OpenDurable (crash harnesses use it to
// install failpoints).
func (db *DB) WALDir() *wal.Dir { return db.walDir }

// openWAL opens (or reopens, recovering) the test database at dir.
func openWAL(t *testing.T, dir string, protocol Protocol, nodes int) (*DB, wal.SetRecoverStats) {
	t.Helper()
	db, stats, err := OpenDurable(dir, walDBSize,
		WithNodes(nodes), WithGranules(20), WithProtocol(protocol), WithInitialValue(walInitial),
		WithWALOptions(wal.WithPreallocate(0)))
	if err != nil {
		t.Fatalf("%s: OpenDurable: %v", protocol, err)
	}
	return db, stats
}

// logRecords returns the intact records of dir's partition log k.
func logRecords(t *testing.T, dir string, k int) []wal.Record {
	t.Helper()
	r, _, c, err := wal.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%d.log", k)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var recs []wal.Record
	for rec, err := r.Next(); err == nil; rec, err = r.Next() {
		recs = append(recs, rec)
	}
	return recs
}

// forEachTailCut drives w through a fresh durable database of the given
// node count, then for every partition log wal-<k>.log reopens a clone
// of the directory with that one file cut (record region only, at the
// given stride and at the full length, in ascending order) and the
// other logs whole.
func forEachTailCut(t *testing.T, nodes int, w Workload, stride int, fn func(k, cut int, full bool, db *DB, stats wal.SetRecoverStats)) {
	t.Helper()
	dir := t.TempDir()
	db, _ := openWAL(t, dir, Conservative, nodes)
	if _, err := db.RunClosed(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nodes; k++ {
		name := fmt.Sprintf("wal-%d.log", k)
		orig, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for cut := wal.LogHeaderSize; ; cut += stride {
			cut = min(cut, len(orig))
			clone := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(clone, name), orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			db, stats := openWAL(t, clone, Conservative, nodes)
			fn(k, cut, cut == len(orig), db, stats)
			db.Close()
			if cut == len(orig) {
				break
			}
		}
	}
}

func TestWALCrashRecoveryConservesBalance(t *testing.T) {
	// Crash the log at many byte offsets: every recovered state must be
	// a consistent prefix — transfers preserve the total, so the total
	// balance must equal the initial total at every cut. A prime stride
	// covers record boundaries and mid-record tears alike. One node, so
	// one log: after-image redo conserves the total only over a prefix in
	// commit time, which every byte prefix of a single log is and one log
	// of several cut alone is not (the shared-injector power cuts of
	// TestDurableFaultInjectionConservesBalance and
	// TestDurablePowerCutCycles cut all logs at one instant).
	w := Workload{Workers: 4, TxnsPerWorker: 50, TransfersPerTxn: 2, Seed: 6}
	forEachTailCut(t, 1, w, 97, func(_, cut int, _ bool, db *DB, _ wal.SetRecoverStats) {
		if got, want := db.TotalBalance(), int64(walDBSize*walInitial); got != want {
			t.Fatalf("cut %d: recovered balance %d, want %d (partial transaction applied)", cut, got, want)
		}
	})
}

func TestWALCrashRecoveryMonotonePrefix(t *testing.T) {
	// Longer prefixes of any one partition log recover at least as many
	// commits, and the whole log recovers all of them. Along the way the
	// cuts must reach both discard rules: a commit missing from the
	// highest log of its mask (cross-partition partial) and one missing
	// from a lower log while a higher one holds it (order violation).
	w := Workload{Workers: 2, TxnsPerWorker: 30, TransfersPerTxn: 1, Seed: 7}
	prev, partial, violations := 0, 0, 0
	forEachTailCut(t, walNodes, w, 137, func(k, cut int, full bool, _ *DB, stats wal.SetRecoverStats) {
		if cut == wal.LogHeaderSize {
			prev = 0
		}
		if stats.Committed < prev {
			t.Fatalf("log %d cut %d: commits decreased %d -> %d", k, cut, prev, stats.Committed)
		}
		prev = stats.Committed
		partial += stats.CrossPartial
		violations += stats.OrderViolations
		if full && (stats.Committed != 60 || stats.CrossPartial != 0 || stats.OrderViolations != 0) {
			t.Fatalf("log %d whole: stats %+v, want 60 commits and nothing discarded", k, stats)
		}
	})
	if partial == 0 || violations == 0 {
		t.Fatalf("cuts discarded %d cross-partition partials and %d order violations, want both paths reached", partial, violations)
	}
}

func TestWALReadOnlyTxnsLogNothing(t *testing.T) {
	// A read-only transaction changes no state, so recovery never needs
	// it: it must not pay for log records.
	dir := t.TempDir()
	db, _ := openWAL(t, dir, Conservative, walNodes)
	defer db.Close()
	if _, err := db.Execute(context.Background(), Txn{Ops: []Op{{Entity: 1}, {Entity: 2}}}); err != nil {
		t.Fatal(err)
	}
	if seqs := db.WALDir().Set().Seqs(); slices.Max(seqs) != 0 {
		t.Fatalf("read-only txn logged records: seqs %v, want all 0", seqs)
	}
	// An updating transaction afterwards logs its full group in each
	// node's log it touched (entities 1 and 2 live on nodes 1 and 2) and
	// nothing anywhere else.
	if _, err := db.Execute(context.Background(), Transfer(1, 2, 5)); err != nil {
		t.Fatal(err)
	}
	want := []wal.Kind{wal.KindBegin, wal.KindUpdate, wal.KindCommit}
	for k := 0; k < walNodes; k++ {
		var kinds []wal.Kind
		for _, rec := range logRecords(t, dir, k) {
			kinds = append(kinds, rec.Kind)
			if rec.Kind == wal.KindCommit && rec.Entity != wal.Mask(1, 2) {
				t.Fatalf("log %d: commit mask %b, want %b", k, rec.Entity, wal.Mask(1, 2))
			}
		}
		if k != 1 && k != 2 {
			if len(kinds) != 0 {
				t.Fatalf("untouched log %d holds %v", k, kinds)
			}
			continue
		}
		if fmt.Sprint(kinds) != fmt.Sprint(want) {
			t.Fatalf("log %d: kinds %v, want %v", k, kinds, want)
		}
	}
}

func TestInMemoryDatabaseHasNoLog(t *testing.T) {
	db := openBase(t)
	if _, err := db.Execute(context.Background(), Transfer(1, 2, 5)); err != nil {
		t.Fatal(err)
	}
	if db.WALDir() != nil {
		t.Fatal("log unexpectedly attached")
	}
	if err := db.Checkpoint(context.Background()); err == nil {
		t.Fatal("checkpoint of an in-memory database succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close of an in-memory database: %v", err)
	}
}
