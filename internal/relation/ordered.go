package relation

import (
	"fmt"
	"sync"

	"granulock/internal/lockmgr"
	"granulock/internal/skiplist"
)

// OrderedIndex is a skip-list index over one Int column, supporting
// range predicates over column *values* (RangeScan, by contrast, ranges
// over tuple ids). Maintenance is transactional like the hash index's.
type OrderedIndex struct {
	table  *Table
	column string
	col    int

	mu   sync.Mutex
	list *skiplist.List
}

// CreateOrderedIndex builds an ordered index over an Int column,
// registering it for maintenance. Like CreateIndex, build it before
// exposing the table to concurrent transactions.
func (db *DB) CreateOrderedIndex(table *Table, column string) (*OrderedIndex, error) {
	col, ok := table.schema.ColIndex(column)
	if !ok {
		return nil, fmt.Errorf("relation: no column %q in %s", column, table.name)
	}
	if table.schema.Columns[col].Type != Int {
		return nil, fmt.Errorf("relation: ordered index requires an Int column, %q is %v",
			column, table.schema.Columns[col].Type)
	}
	oidx := &OrderedIndex{
		table:  table,
		column: column,
		col:    col,
		list:   skiplist.New(uint64(col) + 1),
	}
	for id := int64(0); id < table.next.Load(); id++ {
		if tup, live := table.get(id); live {
			oidx.add(tup[col], id)
		}
	}
	table.attachIndex(oidx)
	return oidx, nil
}

// Column returns the indexed column name.
func (o *OrderedIndex) Column() string { return o.column }

// colIdx implements maintainer.
func (o *OrderedIndex) colIdx() int { return o.col }

// add implements maintainer.
func (o *OrderedIndex) add(d Datum, id int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.list.Insert(d.Int, id)
}

// remove implements maintainer.
func (o *OrderedIndex) remove(d Datum, id int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.list.Delete(d.Int, id)
}

// Len returns the number of indexed live tuples.
func (o *OrderedIndex) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.list.Len()
}

// candidates snapshots the ids with column value in [from, to).
func (o *OrderedIndex) candidates(from, to int64) []int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var ids []int64
	o.list.Range(from, to, func(_, id int64) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// RangeLookup reads, under granule locks, every live tuple whose
// indexed column value lies in [from, to), in ascending value order.
// Candidates are re-checked after locking; like any pure granule-lock
// range predicate it does not prevent phantoms.
func (t *Txn) RangeLookup(oidx *OrderedIndex, from, to int64) ([]Tuple, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	var out []Tuple
	for _, id := range oidx.candidates(from, to) {
		if err := t.lockGranule(oidx.table, id, lockmgr.ModeShared); err != nil {
			return nil, err
		}
		tup, live := oidx.table.get(id)
		if !live {
			continue
		}
		if v := tup[oidx.col].Int; v >= from && v < to {
			out = append(out, tup)
		}
	}
	return out, nil
}
