package relation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

func accountsSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "owner", Type: String},
		{Name: "balance", Type: Int},
	}}
}

// openBank creates a db with one "accounts" table holding n rows of
// balance 100 each.
func openBank(t *testing.T, n, parts, granuleSize int, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := NewDB("bank", opts...)
	tbl, err := db.CreateTable("accounts", accountsSchema(), parts, granuleSize)
	if err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(context.Background())
	for i := 0; i < n; i++ {
		if _, err := txn.Insert(tbl, Tuple{StrDatum(fmt.Sprintf("acct%d", i)), IntDatum(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestSchemaValidation(t *testing.T) {
	bad := []Schema{
		{},
		{Columns: []Column{{Name: "", Type: Int}}},
		{Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}}},
		{Columns: []Column{{Name: "a", Type: Type(9)}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d accepted", i)
		}
	}
	if err := accountsSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	if idx, ok := accountsSchema().ColIndex("balance"); !ok || idx != 1 {
		t.Fatal("ColIndex broken")
	}
	if _, ok := accountsSchema().ColIndex("nope"); ok {
		t.Fatal("phantom column found")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB("d")
	if _, err := db.CreateTable("", accountsSchema(), 1, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := db.CreateTable("t", Schema{}, 1, 1); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := db.CreateTable("t", accountsSchema(), 0, 1); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := db.CreateTable("t", accountsSchema(), 1, 0); err == nil {
		t.Fatal("zero granule size accepted")
	}
	if _, err := db.CreateTable("t", accountsSchema(), 2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", accountsSchema(), 2, 10); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, ok := db.Table("t"); !ok {
		t.Fatal("table lookup failed")
	}
	if _, ok := db.Table("missing"); ok {
		t.Fatal("phantom table found")
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	db, tbl := openBank(t, 10, 3, 4)
	txn := db.Begin(context.Background())
	tup, err := txn.Get(tbl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tup[0].Str != "acct7" || tup[1].Int != 100 {
		t.Fatalf("tuple %v", tup)
	}
	if _, err := txn.Get(tbl, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tuple error %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTypeChecking(t *testing.T) {
	db, tbl := openBank(t, 1, 1, 1)
	txn := db.Begin(context.Background())
	defer txn.Abort()
	if _, err := txn.Insert(tbl, Tuple{IntDatum(1), IntDatum(2)}); err == nil {
		t.Fatal("wrong column type accepted")
	}
	if _, err := txn.Insert(tbl, Tuple{StrDatum("x")}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := txn.Update(tbl, 0, "balance", StrDatum("oops")); err == nil {
		t.Fatal("type-mismatched update accepted")
	}
	if err := txn.Update(tbl, 0, "nope", IntDatum(1)); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db, tbl := openBank(t, 5, 2, 2)
	ctx := context.Background()
	if err := db.Exec(ctx, func(txn *Txn) error {
		if err := txn.Update(tbl, 2, "balance", IntDatum(250)); err != nil {
			return err
		}
		return txn.Delete(tbl, 4)
	}); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(ctx)
	defer txn.Commit()
	tup, err := txn.Get(tbl, 2)
	if err != nil || tup[1].Int != 250 {
		t.Fatalf("update lost: %v %v", tup, err)
	}
	if _, err := txn.Get(tbl, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted tuple visible: %v", err)
	}
	if err := txn.Delete(tbl, 4); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete accepted")
	}
}

func TestAbortRestoresEverything(t *testing.T) {
	db, tbl := openBank(t, 5, 2, 2)
	ctx := context.Background()
	txn := db.Begin(ctx)
	if err := txn.Update(tbl, 1, "balance", IntDatum(0)); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(tbl, 2); err != nil {
		t.Fatal(err)
	}
	id, err := txn.Insert(tbl, Tuple{StrDatum("ghost"), IntDatum(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin(ctx)
	defer check.Commit()
	tup, err := check.Get(tbl, 1)
	if err != nil || tup[1].Int != 100 {
		t.Fatalf("update not undone: %v %v", tup, err)
	}
	if _, err := check.Get(tbl, 2); err != nil {
		t.Fatalf("delete not undone: %v", err)
	}
	if _, err := check.Get(tbl, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
	if s := db.Stats(); s.Aborts != 1 {
		t.Fatalf("aborts %d", s.Aborts)
	}
}

func TestFinishedTxnRejected(t *testing.T) {
	db, tbl := openBank(t, 2, 1, 1)
	txn := db.Begin(context.Background())
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatal("double commit accepted")
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatal("abort after commit accepted")
	}
	if _, err := txn.Get(tbl, 0); !errors.Is(err, ErrTxnDone) {
		t.Fatal("read on finished txn accepted")
	}
	if _, err := txn.Insert(tbl, Tuple{StrDatum("x"), IntDatum(1)}); !errors.Is(err, ErrTxnDone) {
		t.Fatal("insert on finished txn accepted")
	}
}

func TestRangeScanLocksBestPlacement(t *testing.T) {
	// A range of 20 consecutive tuples over granules of 5 must take
	// exactly ceil(20/5) = 4 granule locks — the paper's best-placement
	// formula made concrete.
	db, tbl := openBank(t, 100, 4, 5)
	txn := db.Begin(context.Background())
	defer txn.Commit()
	tups, err := txn.RangeScan(tbl, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(tups) != 20 {
		t.Fatalf("range returned %d tuples", len(tups))
	}
	granules := 0
	for g := int64(0); g < 20; g++ {
		if p := tbl.granulePath(g * int64(tbl.granuleSize)); db.table.HoldsAtLeast(txn.ID(), p[2], lockmgr.ModeIS) {
			granules++
		}
	}
	if granules != 4 {
		t.Fatalf("range scan held %d granule locks, want 4", granules)
	}
}

func TestRangeScanEdges(t *testing.T) {
	db, tbl := openBank(t, 10, 2, 3)
	txn := db.Begin(context.Background())
	defer txn.Commit()
	if _, err := txn.RangeScan(tbl, -1, 5); err == nil {
		t.Fatal("negative from accepted")
	}
	if _, err := txn.RangeScan(tbl, 5, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
	empty, err := txn.RangeScan(tbl, 4, 4)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty range: %v %v", empty, err)
	}
	// Range past the end clips.
	tail, err := txn.RangeScan(tbl, 8, 100)
	if err != nil || len(tail) != 2 {
		t.Fatalf("clipped range: %d %v", len(tail), err)
	}
}

func TestFullScanBlocksWriters(t *testing.T) {
	db, tbl := openBank(t, 20, 2, 5)
	ctx := context.Background()
	reader := db.Begin(ctx)
	tups, err := reader.Scan(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tups) != 20 {
		t.Fatalf("scan returned %d", len(tups))
	}
	// A writer must block until the scan's table S lock is released.
	done := make(chan error, 1)
	go func() {
		done <- db.Exec(ctx, func(w *Txn) error {
			return w.Update(tbl, 0, "balance", IntDatum(1))
		})
	}()
	select {
	case <-done:
		t.Fatal("writer not blocked by table-level scan lock")
	case <-time.After(20 * time.Millisecond):
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestScanPredicate(t *testing.T) {
	db, tbl := openBank(t, 10, 2, 5)
	ctx := context.Background()
	if err := db.Exec(ctx, func(txn *Txn) error {
		return txn.Update(tbl, 3, "balance", IntDatum(999))
	}); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(ctx)
	defer txn.Commit()
	rich, err := txn.Scan(tbl, func(tup Tuple) bool { return tup[1].Int > 500 })
	if err != nil {
		t.Fatal(err)
	}
	if len(rich) != 1 || rich[0][0].Str != "acct3" {
		t.Fatalf("predicate scan: %v", rich)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	db, tbl := openBank(t, 50, 4, 5)
	ctx := context.Background()
	const workers, txns = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				from := int64((w*7 + i*3) % 50)
				to := int64((w*11 + i*13 + 1) % 50)
				err := db.Exec(ctx, func(txn *Txn) error {
					a, err := txn.Get(tbl, from)
					if err != nil {
						return err
					}
					b, err := txn.Get(tbl, to)
					if err != nil {
						return err
					}
					if err := txn.Update(tbl, from, "balance", IntDatum(a[1].Int-5)); err != nil {
						return err
					}
					return txn.Update(tbl, to, "balance", IntDatum(b[1].Int+5))
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	txn := db.Begin(ctx)
	defer txn.Commit()
	all, err := txn.Scan(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, tup := range all {
		total += tup[1].Int
	}
	if total != 50*100 {
		t.Fatalf("conservation violated: %d", total)
	}
	if s := db.Stats(); s.Commits < workers*txns {
		t.Fatalf("commits %d", s.Commits)
	}
}

func TestDeadlockVictimRetriedByExec(t *testing.T) {
	// Get-then-Update in opposite orders across granules forces
	// conversion/order deadlocks; Exec must retry victims to completion.
	db, tbl := openBank(t, 10, 2, 1)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				a, b := int64(0), int64(9)
				if w%2 == 1 {
					a, b = b, a
				}
				err := db.Exec(ctx, func(txn *Txn) error {
					if err := txn.Update(tbl, a, "balance", IntDatum(int64(i))); err != nil {
						return err
					}
					return txn.Update(tbl, b, "balance", IntDatum(int64(i)))
				})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock retry loop hung")
	}
}

func TestEscalationKicksInOnPointReads(t *testing.T) {
	db, tbl := openBank(t, 100, 4, 1, WithEscalation(10))
	ctx := context.Background()
	txn := db.Begin(ctx)
	for id := int64(0); id < 20; id++ {
		if _, err := txn.Get(tbl, id); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Escalations == 0 {
		t.Fatal("no escalation after 20 tuple locks with threshold 10")
	}
	// The escalated table S lock must now block a writer.
	blocked := make(chan error, 1)
	go func() {
		w := db.Begin(ctx)
		defer w.Commit()
		blocked <- w.Update(tbl, 99, "balance", IntDatum(0))
	}()
	select {
	case <-blocked:
		t.Fatal("writer not blocked by escalated table lock")
	case <-time.After(20 * time.Millisecond):
	}
	txn.Commit()
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestDatumAndTypeStrings(t *testing.T) {
	if Int.String() != "int" || String.String() != "string" || Type(9).String() == "" {
		t.Fatal("type names")
	}
	if IntDatum(5).String() != "5" || StrDatum("x").String() != "x" {
		t.Fatal("datum strings")
	}
	if (Datum{Type: Type(9)}).String() == "" {
		t.Fatal("unknown datum string")
	}
}

func TestStoredTuplesDoNotAliasCallerSlices(t *testing.T) {
	db, tbl := openBank(t, 1, 1, 1)
	ctx := context.Background()
	tup := Tuple{StrDatum("alias"), IntDatum(7)}
	var id int64
	if err := db.Exec(ctx, func(txn *Txn) error {
		var err error
		id, err = txn.Insert(tbl, tup)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tup[1] = IntDatum(999) // caller mutates its slice after commit
	txn := db.Begin(ctx)
	defer txn.Commit()
	got, err := txn.Get(tbl, id)
	if err != nil || got[1].Int != 7 {
		t.Fatalf("stored tuple aliased caller memory: %v %v", got, err)
	}
	got[0] = StrDatum("mutated") // and the read result must not alias storage
	again, _ := txn.Get(tbl, id)
	if again[0].Str != "alias" {
		t.Fatal("read result aliases storage")
	}
}
