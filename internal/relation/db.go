package relation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"granulock/internal/lockmgr"
)

// DB is a catalog of tables sharing one lock table, locked
// hierarchically: database, table, granule. All methods are safe for
// concurrent use.
type DB struct {
	name  string
	table *lockmgr.Table
	locks *lockmgr.HierTable

	mu     sync.RWMutex
	tables map[string]*Table

	nextTxn atomic.Int64

	commits   atomic.Int64
	aborts    atomic.Int64
	deadlocks atomic.Int64
}

// Option configures a DB.
type Option func(*options)

type options struct {
	escalation int
}

// WithEscalation enables lock escalation at the given per-table child
// threshold (see lockmgr.WithEscalation).
func WithEscalation(threshold int) Option {
	return func(o *options) { o.escalation = threshold }
}

// NewDB creates an empty database.
func NewDB(name string, opts ...Option) *DB {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var hopts []lockmgr.HierOption
	if o.escalation > 0 {
		hopts = append(hopts, lockmgr.WithEscalation(o.escalation))
	}
	table := lockmgr.NewTable()
	return &DB{
		name:   name,
		table:  table,
		locks:  lockmgr.NewHierTable(table, hopts...),
		tables: make(map[string]*Table),
	}
}

// Stats summarize database activity.
type Stats struct {
	Commits     int64
	Aborts      int64
	Deadlocks   int64 // victim events (each leads to an abort or retry)
	Lock        lockmgr.Stats
	Escalations int64
}

// Stats returns an activity snapshot.
func (db *DB) Stats() Stats {
	return Stats{
		Commits:     db.commits.Load(),
		Aborts:      db.aborts.Load(),
		Deadlocks:   db.deadlocks.Load(),
		Lock:        db.table.Stats(),
		Escalations: db.locks.Escalations(),
	}
}

// Table is a horizontally partitioned tuple store. Tuple IDs are dense
// and ever-increasing; tuple id t lives in partition t mod parts and in
// lock granule t div granuleSize (contiguous granules, so sequential
// ranges need few locks — the paper's best placement).
type Table struct {
	name        string
	ord         int // position in the catalog, from 1
	schema      Schema
	granuleSize int

	parts []*part
	next  atomic.Int64 // next tuple id

	idxMu   sync.Mutex
	indexes []maintainer
}

// maintainer is the transactional index-maintenance hook shared by the
// hash and ordered indexes.
type maintainer interface {
	colIdx() int
	add(d Datum, id int64)
	remove(d Datum, id int64)
}

// part is one storage partition: a dense slice of rows guarded by a
// short latch (isolation comes from the lock manager, not the latch).
type part struct {
	mu   sync.Mutex
	rows []row
}

// row is a stored tuple with a deletion tombstone.
type row struct {
	tuple   Tuple
	deleted bool
}

// CreateTable registers a new table. granuleSize is the number of
// consecutive tuples per lock granule (the locking granularity knob:
// 1 = tuple-level locking, large = coarse). parts is the number of
// storage partitions (shared-nothing nodes).
func (db *DB) CreateTable(name string, schema Schema, parts, granuleSize int) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty table name")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if parts < 1 {
		return nil, fmt.Errorf("relation: partitions %d < 1", parts)
	}
	if granuleSize < 1 {
		return nil, fmt.Errorf("relation: granule size %d < 1", granuleSize)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("relation: table %q already exists", name)
	}
	t := &Table{name: name, ord: len(db.tables) + 1, schema: schema, granuleSize: granuleSize}
	t.parts = make([]*part, parts)
	for i := range t.parts {
		t.parts[i] = &part{}
	}
	db.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Rows returns the number of tuple ids ever allocated (including
// deleted ones).
func (t *Table) Rows() int64 { return t.next.Load() }

// GranuleOf returns the lock granule covering tuple id.
func (t *Table) GranuleOf(id int64) int64 { return id / int64(t.granuleSize) }

// Nodes of the lock hierarchy are granules of the lock table: the
// database is dbNode, table k (its ordinal) is k<<granuleBits, and lock
// granule g of table k is one past g below that.
const (
	dbNode      lockmgr.Granule = 0
	granuleBits                 = 40
)

// tablePath returns the root-to-table lock path.
func (t *Table) tablePath() [2]lockmgr.Granule {
	return [2]lockmgr.Granule{dbNode, lockmgr.Granule(t.ord) << granuleBits}
}

// granulePath returns the root-to-granule lock path for tuple id.
func (t *Table) granulePath(id int64) [3]lockmgr.Granule {
	p := t.tablePath()
	return [3]lockmgr.Granule{p[0], p[1], p[1] + lockmgr.Granule(t.GranuleOf(id)) + 1}
}

// locate returns the partition and in-partition index of tuple id.
func (t *Table) locate(id int64) (*part, int) {
	p := t.parts[int(id)%len(t.parts)]
	return p, int(id) / len(t.parts)
}

// get reads a stored row (latch only; callers hold the lock manager
// locks).
func (t *Table) get(id int64) (Tuple, bool) {
	if id < 0 || id >= t.next.Load() {
		return nil, false
	}
	p, idx := t.locate(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx >= len(p.rows) || p.rows[idx].deleted {
		return nil, false
	}
	return p.rows[idx].tuple.clone(), true
}

// put stores a tuple at id, growing the partition as needed, and
// maintains the indexes for live stores.
func (t *Table) put(id int64, tup Tuple, deleted bool) {
	p, idx := t.locate(id)
	p.mu.Lock()
	for len(p.rows) <= idx {
		p.rows = append(p.rows, row{deleted: true})
	}
	p.rows[idx] = row{tuple: tup, deleted: deleted}
	p.mu.Unlock()
	if !deleted {
		t.forIndexes(func(ix maintainer) { ix.add(tup[ix.colIdx()], id) })
	}
}

// setCol overwrites one column of a stored row, returning the previous
// datum, and maintains any index on that column.
func (t *Table) setCol(id int64, col int, d Datum) (Datum, bool) {
	p, idx := t.locate(id)
	p.mu.Lock()
	if idx >= len(p.rows) || p.rows[idx].deleted {
		p.mu.Unlock()
		return Datum{}, false
	}
	old := p.rows[idx].tuple[col]
	p.rows[idx].tuple[col] = d
	p.mu.Unlock()
	t.forIndexes(func(ix maintainer) {
		if ix.colIdx() == col {
			ix.remove(old, id)
			ix.add(d, id)
		}
	})
	return old, true
}

// setDeleted flips a row's tombstone, returning the previous flag, and
// adds or removes the row's index entries accordingly.
func (t *Table) setDeleted(id int64, deleted bool) bool {
	p, idx := t.locate(id)
	p.mu.Lock()
	if idx >= len(p.rows) {
		p.mu.Unlock()
		return true
	}
	old := p.rows[idx].deleted
	p.rows[idx].deleted = deleted
	tup := p.rows[idx].tuple
	p.mu.Unlock()
	if old != deleted && tup != nil {
		t.forIndexes(func(ix maintainer) {
			if deleted {
				ix.remove(tup[ix.colIdx()], id)
			} else {
				ix.add(tup[ix.colIdx()], id)
			}
		})
	}
	return old
}
