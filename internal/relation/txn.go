package relation

import (
	"context"
	"errors"
	"fmt"
	"time"

	"granulock/internal/lockmgr"
)

// ErrTxnDone reports use of a committed or aborted transaction.
var ErrTxnDone = errors.New("relation: transaction already finished")

// ErrNotFound reports a missing tuple.
var ErrNotFound = errors.New("relation: tuple not found")

// Txn is one transaction: strict two-phase locking over the database's
// hierarchical lock manager with in-memory undo, so Abort restores
// every modified row. A Txn belongs to one goroutine.
type Txn struct {
	db   *DB
	ctx  context.Context
	id   lockmgr.TxnID
	undo []undoRec
	done bool
}

// undoRec reverses one mutation.
type undoRec struct {
	table *Table
	id    int64
	// kind: column restore or tombstone restore.
	col     int
	datum   Datum
	tomb    bool
	tombOld bool
}

// Begin starts a transaction.
func (db *DB) Begin(ctx context.Context) *Txn {
	return &Txn{db: db, ctx: ctx, id: lockmgr.TxnID(db.nextTxn.Add(1))}
}

// ID returns the transaction's lock-manager identity.
func (t *Txn) ID() lockmgr.TxnID { return t.id }

// lock acquires a node path, translating deadlock victimhood.
func (t *Txn) lock(path []lockmgr.Granule, mode lockmgr.Mode) error {
	err := t.db.locks.Lock(t.ctx, t.id, path, mode)
	if errors.Is(err, lockmgr.ErrDeadlock) {
		t.db.deadlocks.Add(1)
	}
	return err
}

// lockGranule locks the granule of tuple id of table, and lockTable the
// whole table.
func (t *Txn) lockGranule(table *Table, id int64, mode lockmgr.Mode) error {
	p := table.granulePath(id)
	return t.lock(p[:], mode)
}

func (t *Txn) lockTable(table *Table, mode lockmgr.Mode) error {
	p := table.tablePath()
	return t.lock(p[:], mode)
}

// Insert appends a tuple and returns its id. The new tuple's granule is
// locked exclusively.
func (t *Txn) Insert(table *Table, tup Tuple) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if err := table.schema.conforms(tup); err != nil {
		return 0, err
	}
	id := table.next.Add(1) - 1
	if err := t.lockGranule(table, id, lockmgr.ModeExclusive); err != nil {
		return 0, err
	}
	table.put(id, tup.clone(), false)
	t.undo = append(t.undo, undoRec{table: table, id: id, tomb: true, tombOld: true})
	return id, nil
}

// Get reads one tuple under a shared granule lock.
func (t *Txn) Get(table *Table, id int64) (Tuple, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if err := t.lockGranule(table, id, lockmgr.ModeShared); err != nil {
		return nil, err
	}
	tup, ok := table.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s[%d]", ErrNotFound, table.name, id)
	}
	return tup, nil
}

// Update overwrites one column of one tuple under an exclusive granule
// lock, recording undo.
func (t *Txn) Update(table *Table, id int64, column string, d Datum) error {
	if t.done {
		return ErrTxnDone
	}
	col, ok := table.schema.ColIndex(column)
	if !ok {
		return fmt.Errorf("relation: no column %q in %s", column, table.name)
	}
	if d.Type != table.schema.Columns[col].Type {
		return fmt.Errorf("relation: column %q expects %v, got %v", column, table.schema.Columns[col].Type, d.Type)
	}
	if err := t.lockGranule(table, id, lockmgr.ModeExclusive); err != nil {
		return err
	}
	old, ok := table.setCol(id, col, d)
	if !ok {
		return fmt.Errorf("%w: %s[%d]", ErrNotFound, table.name, id)
	}
	t.undo = append(t.undo, undoRec{table: table, id: id, col: col, datum: old})
	return nil
}

// Delete tombstones a tuple under an exclusive granule lock.
func (t *Txn) Delete(table *Table, id int64) error {
	if t.done {
		return ErrTxnDone
	}
	if err := t.lockGranule(table, id, lockmgr.ModeExclusive); err != nil {
		return err
	}
	if _, ok := table.get(id); !ok {
		return fmt.Errorf("%w: %s[%d]", ErrNotFound, table.name, id)
	}
	old := table.setDeleted(id, true)
	t.undo = append(t.undo, undoRec{table: table, id: id, tomb: true, tombOld: old})
	return nil
}

// RangeScan reads tuples with ids in [from, to), locking only the
// granules the range covers — the sequential-access / best-placement
// pattern of the paper (⌈span/granuleSize⌉ locks).
func (t *Txn) RangeScan(table *Table, from, to int64) ([]Tuple, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if from < 0 || to < from {
		return nil, fmt.Errorf("relation: bad range [%d, %d)", from, to)
	}
	if to == from {
		return nil, nil
	}
	for g := table.GranuleOf(from); g <= table.GranuleOf(to-1); g++ {
		if err := t.lockGranule(table, g*int64(table.granuleSize), lockmgr.ModeShared); err != nil {
			return nil, err
		}
	}
	var out []Tuple
	limit := min64(to, table.next.Load())
	for id := from; id < limit; id++ {
		if tup, ok := table.get(id); ok {
			out = append(out, tup)
		}
	}
	return out, nil
}

// Scan reads every live tuple under a single table-level shared lock —
// the coarse end of the granularity spectrum: one lock, no concurrency
// with any writer of the table.
func (t *Txn) Scan(table *Table, keep func(Tuple) bool) ([]Tuple, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if err := t.lockTable(table, lockmgr.ModeShared); err != nil {
		return nil, err
	}
	var out []Tuple
	for id := int64(0); id < table.next.Load(); id++ {
		tup, ok := table.get(id)
		if !ok {
			continue
		}
		if keep == nil || keep(tup) {
			out = append(out, tup)
		}
	}
	return out, nil
}

// Commit releases the transaction's locks, making its effects
// permanent.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.undo = nil
	t.db.locks.ReleaseAll(t.id)
	t.db.commits.Add(1)
	return nil
}

// Abort undoes every mutation (in reverse order) and releases the
// locks. Aborting after a deadlock error is the standard recovery: the
// victim retries with a fresh Begin.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if u.tomb {
			u.table.setDeleted(u.id, u.tombOld)
		} else {
			u.table.setCol(u.id, u.col, u.datum)
		}
	}
	t.undo = nil
	t.db.locks.ReleaseAll(t.id)
	t.db.aborts.Add(1)
	return nil
}

// Exec runs fn inside a transaction, committing on success, aborting
// and retrying on deadlock, and aborting on any other error.
func (db *DB) Exec(ctx context.Context, fn func(*Txn) error) error {
	for attempt := 0; ; attempt++ {
		txn := db.Begin(ctx)
		err := fn(txn)
		if err == nil {
			return txn.Commit()
		}
		_ = txn.Abort()
		if !errors.Is(err, lockmgr.ErrDeadlock) {
			return err
		}
		// The victim retries, after a pause: restarted at once it takes
		// its first lock back before the survivor has run, and the same
		// cycle forms again — for minutes, on a busy host. The window
		// doubles from 50µs to 3.2ms and the transaction id picks the
		// point in it, so competing victims come back apart.
		window := 50 * time.Microsecond << min(attempt, 6)
		select {
		case <-time.After(window * time.Duration(txn.id%16+1) / 16):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
