package relation

import (
	"fmt"
	"sync"

	"granulock/internal/lockmgr"
)

// Index is a hash secondary index over one column of a table, mapping a
// datum to the set of live tuple ids carrying it. Index maintenance is
// transactional: inserts, updates and deletes adjust it, and aborts
// roll the adjustments back together with the data.
//
// Lookups go through the same granule locks as base-table reads: an
// index probe locks the granules of the matching tuples (a scattered
// point-access pattern — the paper's worst placement), not the whole
// table, which is exactly why fine granularity pays off for selective
// index access while full scans prefer one coarse lock.
type Index struct {
	table  *Table
	column string
	col    int

	mu      sync.Mutex
	buckets map[indexKey]map[int64]struct{}
}

// indexKey is a comparable rendering of a datum.
type indexKey struct {
	t Type
	i int64
	s string
}

func keyOf(d Datum) indexKey {
	return indexKey{t: d.Type, i: d.Int, s: d.Str}
}

// CreateIndex builds a hash index over column of table, registering it
// for maintenance. Building scans the current rows without locks;
// create indexes before exposing the table to transactions (the usual
// DDL discipline of a simple system).
func (db *DB) CreateIndex(table *Table, column string) (*Index, error) {
	col, ok := table.schema.ColIndex(column)
	if !ok {
		return nil, fmt.Errorf("relation: no column %q in %s", column, table.name)
	}
	idx := &Index{
		table:   table,
		column:  column,
		col:     col,
		buckets: make(map[indexKey]map[int64]struct{}),
	}
	for id := int64(0); id < table.next.Load(); id++ {
		if tup, live := table.get(id); live {
			idx.add(tup[col], id)
		}
	}
	table.attachIndex(idx)
	return idx, nil
}

// attachIndex registers an index for maintenance.
func (t *Table) attachIndex(idx maintainer) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.indexes = append(t.indexes, idx)
}

// forIndexes visits the table's indexes.
func (t *Table) forIndexes(fn func(maintainer)) {
	t.idxMu.Lock()
	idxs := append([]maintainer(nil), t.indexes...)
	t.idxMu.Unlock()
	for _, idx := range idxs {
		fn(idx)
	}
}

// Column returns the indexed column name.
func (idx *Index) Column() string { return idx.column }

// colIdx implements maintainer.
func (idx *Index) colIdx() int { return idx.col }

// add records id under value.
func (idx *Index) add(value Datum, id int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	k := keyOf(value)
	set := idx.buckets[k]
	if set == nil {
		set = make(map[int64]struct{}, 1)
		idx.buckets[k] = set
	}
	set[id] = struct{}{}
}

// remove drops id from under value.
func (idx *Index) remove(value Datum, id int64) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	k := keyOf(value)
	if set := idx.buckets[k]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(idx.buckets, k)
		}
	}
}

// ids returns the candidate tuple ids for value, sorted order not
// guaranteed.
func (idx *Index) ids(value Datum) []int64 {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	set := idx.buckets[keyOf(value)]
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// Cardinality returns the number of distinct indexed values.
func (idx *Index) Cardinality() int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return len(idx.buckets)
}

// Lookup reads, under granule locks, every live tuple whose indexed
// column equals value — a scattered point-access pattern (the paper's
// worst placement), which is why selective index access wants fine
// granules. Candidates are re-checked after locking (the index is a
// hint; the base table is the truth), so concurrent updates cannot
// produce false positives. Like all pure granule locking, the probe
// does not prevent phantoms: a concurrent insert of a matching tuple
// committed after the candidate snapshot may be missed.
func (t *Txn) Lookup(idx *Index, value Datum) ([]Tuple, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if value.Type != idx.table.schema.Columns[idx.col].Type {
		return nil, fmt.Errorf("relation: index %s.%s expects %v, got %v",
			idx.table.name, idx.column, idx.table.schema.Columns[idx.col].Type, value.Type)
	}
	var out []Tuple
	for _, id := range idx.ids(value) {
		if err := t.lockGranule(idx.table, id, lockmgr.ModeShared); err != nil {
			return nil, err
		}
		tup, live := idx.table.get(id)
		if !live {
			continue
		}
		if keyOf(tup[idx.col]) == keyOf(value) {
			out = append(out, tup)
		}
	}
	return out, nil
}

// SumInt aggregates an Int column over every live tuple, under a single
// table-level shared lock (the coarse-granularity aggregate of the
// paper's range-query discussion).
func (t *Txn) SumInt(table *Table, column string) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	col, ok := table.schema.ColIndex(column)
	if !ok {
		return 0, fmt.Errorf("relation: no column %q in %s", column, table.name)
	}
	if table.schema.Columns[col].Type != Int {
		return 0, fmt.Errorf("relation: column %q is not Int", column)
	}
	if err := t.lockTable(table, lockmgr.ModeShared); err != nil {
		return 0, err
	}
	var sum int64
	for id := int64(0); id < table.next.Load(); id++ {
		if tup, live := table.get(id); live {
			sum += tup[col].Int
		}
	}
	return sum, nil
}
