// Package engine is an executable shared-nothing mini-DBMS: an
// in-memory database horizontally partitioned over N nodes, with real
// goroutine transactions synchronizing through a pluggable
// concurrency-control protocol (internal/engine/cc). It exists to
// cross-validate the simulation model's conclusions — that granularity
// trades concurrency against lock management cost — on an actual
// concurrent system, and to compare the locking regimes the paper
// discusses against the alternatives the literature proposes for
// exactly the contention ranges where 2PL hurts.
//
// Six protocols ship in the registry: conservative preclaiming
// (deadlock-free, the paper's protocol), claim-as-needed (deadlock-
// detected, footnote 1), hierarchical multigranularity locking with
// escalation (the "block and file level" recommendation of the
// conclusions), the wound-wait and wait-die age-priority restart
// policies, and optimistic validate-at-commit. Open takes a protocol
// *name* resolved through cc.Lookup; cc.Names lists the registry.
// A database is either in-memory (Open) or durable (OpenDurable, a
// write-ahead directory with one internal/wal group-commit log per
// node, crash-recoverable under every protocol).
package engine

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/engine/cc"
	"granulock/internal/lockmgr"
	"granulock/internal/obs"
	"granulock/internal/wal"
)

// Protocol names a concurrency-control protocol in the cc registry.
// It is a plain string: the historical int enum was replaced by
// registry names so protocols can be added without touching this
// package (see docs/ENGINE.md for the migration note).
type Protocol = string

// The built-in protocol names. The authoritative list — including any
// protocol registered outside this package — is cc.Names().
const (
	// Conservative preclaims every granule before touching data; a
	// transaction holds nothing while it waits, so deadlock is
	// impossible (the paper's protocol).
	Conservative Protocol = "conservative"
	// ClaimAsNeeded acquires each granule on first touch; deadlocks are
	// detected and the victim retries (the strategy of footnote 1).
	ClaimAsNeeded Protocol = "claim-as-needed"
	// Hierarchical uses the multigranularity lock manager with a
	// database→granule hierarchy, intention modes and best-effort lock
	// escalation.
	Hierarchical Protocol = "hierarchical"
	// WoundWait resolves conflicts by age: older requesters wound
	// (restart) younger holders, younger requesters wait.
	WoundWait Protocol = "wound-wait"
	// WaitDie resolves conflicts by age: older requesters wait, younger
	// requesters die (restart) rather than wait behind an older holder.
	WaitDie Protocol = "wait-die"
	// Optimistic takes no locks: transactions buffer writes privately
	// and validate their read sets at commit (backward validation).
	Optimistic Protocol = "optimistic"
)

// config is the carrier the options fill; Open and OpenDurable validate
// it before building anything.
type config struct {
	// Nodes is the number of shared-nothing nodes (processors); entities
	// are round-robin partitioned across them.
	Nodes int
	// DBSize is the number of entities (each holds an int64 value).
	DBSize int
	// Granules is the number of lock granules; entity e belongs to
	// granule e·Granules/DBSize (contiguous ranges, the best-placement
	// layout).
	Granules int
	// Protocol is the concurrency-control protocol name, resolved
	// through the cc registry.
	Protocol Protocol
	// InitialValue seeds every entity, so TotalBalance starts at
	// DBSize·InitialValue.
	InitialValue int64
	// WALOptions configures the logs OpenDurable creates (preallocation,
	// flush interval, fault injection); ignored by Open.
	WALOptions []wal.LogOption
	// EscalationThreshold enables lock escalation for the hierarchical
	// protocol: a transaction holding this many granules escalates to a
	// database-level lock (0 disables; ignored by other protocols).
	EscalationThreshold int
	// Metrics, when non-nil, mirrors the database's activity into the
	// registry: commit and restart counters
	// (granulock_engine_commits_total, granulock_engine_restarts_total
	// by cause) plus the protocol's lock-table families. One database
	// per registry.
	Metrics *obs.Registry
}

// Option configures Open and OpenDurable.
type Option func(*config)

// WithNodes sets the number of shared-nothing nodes (default 1).
func WithNodes(n int) Option { return func(c *config) { c.Nodes = n } }

// WithGranules sets the number of lock granules (default: one per
// entity, the finest granularity).
func WithGranules(n int) Option { return func(c *config) { c.Granules = n } }

// WithProtocol selects the concurrency-control protocol by registry
// name (default "conservative"; cc.Names lists the registry).
func WithProtocol(name Protocol) Option { return func(c *config) { c.Protocol = name } }

// WithInitialValue seeds every entity (default 0).
func WithInitialValue(v int64) Option { return func(c *config) { c.InitialValue = v } }

// WithWALOptions forwards options to the logs OpenDurable creates
// (e.g. wal.WithFlushInterval, wal.WithPreallocate,
// wal.WithFaultInjector for crash harnesses).
func WithWALOptions(opts ...wal.LogOption) Option {
	return func(c *config) { c.WALOptions = append(c.WALOptions, opts...) }
}

// WithEscalationThreshold enables hierarchical lock escalation at the
// given held-granule count (hierarchical protocol only).
func WithEscalationThreshold(n int) Option { return func(c *config) { c.EscalationThreshold = n } }

// WithMetrics mirrors the database's activity into the registry.
func WithMetrics(reg *obs.Registry) Option { return func(c *config) { c.Metrics = reg } }

// newConfig applies opts over the defaults — one node, one granule per
// entity, the conservative protocol (also what WithProtocol("") selects,
// so an unset -protocol flag can be passed through) — and validates the
// result.
func newConfig(dbsize int, opts []Option) (config, error) {
	c := config{Nodes: 1, DBSize: dbsize, Granules: dbsize}
	for _, opt := range opts {
		opt(&c)
	}
	if c.Protocol == "" {
		c.Protocol = Conservative
	}
	switch {
	case c.Nodes < 1:
		return c, fmt.Errorf("engine: nodes %d < 1", c.Nodes)
	case c.DBSize < 1:
		return c, fmt.Errorf("engine: dbsize %d < 1", c.DBSize)
	case c.Granules < 1 || c.Granules > c.DBSize:
		return c, fmt.Errorf("engine: granules %d outside [1, dbsize=%d]", c.Granules, c.DBSize)
	case c.EscalationThreshold < 0:
		return c, fmt.Errorf("engine: escalation threshold %d < 0", c.EscalationThreshold)
	}
	if _, ok := cc.Lookup(c.Protocol); !ok {
		return c, fmt.Errorf("engine: unknown protocol %q (registered: %v)", c.Protocol, cc.Names())
	}
	return c, nil
}

// Op is one read or update of an entity: Delta 0 reads, otherwise the
// delta is added to the entity's value.
type Op struct {
	Entity int
	Delta  int64
}

// Txn is a transaction: a list of operations executed atomically under
// the configured protocol. The returned sum aggregates the values of
// all entities read (after applying the transaction's own earlier
// deltas, as the ops execute in order).
type Txn struct {
	Ops []Op
	// Work is synthetic computation (iterations of a mixing loop)
	// performed while the access rights are held — the executable
	// analog of the paper's per-entity processing cost
	// (cputime/iotime). Without it, real transactions hold locks for
	// nanoseconds and contention never materializes.
	Work int
}

// spin burns cpu for n iterations in a way the compiler cannot elide,
// yielding the processor periodically the way a real transaction yields
// for I/O while holding its locks (the paper's transactions spend most
// of their lock-holding time waiting on disks). Without the yields a
// GOMAXPROCS=1 host would run every critical section to completion
// between scheduling points and contention could never materialize.
func spin(n int) int64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i&0x3ff == 0x3ff {
			runtime.Gosched()
		}
	}
	return int64(x & 1)
}

// Stats counts engine activity.
type Stats struct {
	Committed int64
	// Restarts counts attempts the protocol aborted and the engine
	// retried, whatever the cause: deadlock victims, wound-wait wounds,
	// wait-die deaths, and optimistic validation failures (always 0
	// under Conservative).
	Restarts int64
	// Lock counts mirror the protocol's lock-table grants/blocks/
	// deadlocks (zero for lockless protocols).
	Lock lockmgr.Stats
	// Escalations counts hierarchical lock escalations (hierarchical
	// protocol only).
	Escalations int64
	// Wounds, Dies and ValidationFails break the protocol-initiated
	// restarts down by cause (wound-wait, wait-die, and optimistic
	// respectively).
	Wounds          int64
	Dies            int64
	ValidationFails int64
}

// node is one shared-nothing partition. Its mutex is a short storage
// latch; isolation comes from the protocol, not from this latch.
type node struct {
	mu     sync.Mutex
	values []int64
}

// DB is an open database. All methods are safe for concurrent use.
type DB struct {
	cfg   config
	nodes []*node
	inst  cc.Instance

	// walDir is the write-ahead directory of an OpenDurable database
	// (one log per node), nil for an in-memory one.
	walDir *wal.Dir

	nextTxn   atomic.Int64
	committed atomic.Int64
	retries   atomic.Int64
	// sink absorbs synthetic Txn.Work results so the compiler cannot
	// eliminate the lock-holding computation.
	sink atomic.Int64

	// helpers run a forked transaction's shares beside its caller
	// (fork.go).
	helpers helpers

	// Registry twins of the counters above, nil without WithMetrics.
	mCommits *obs.Counter
	// mRestarts maps a restart cause (cc.RestartKind) to its counter;
	// series resolve once at Open so the hot loop never registers.
	mRestarts map[string]*obs.Counter
}

// Open creates an in-memory database of dbsize entities, configured by
// options — mirroring the granulock.Run(p, With…) facade:
//
//	db, err := engine.Open(1000,
//		engine.WithProtocol("wound-wait"),
//		engine.WithGranules(100),
//		engine.WithNodes(4),
//		engine.WithInitialValue(100))
//
// Defaults: one node, one granule per entity (finest), the
// conservative protocol, zero initial value, no metrics. Nothing is
// logged; OpenDurable is the durable constructor.
func Open(dbsize int, opts ...Option) (*DB, error) {
	cfg, err := newConfig(dbsize, opts)
	if err != nil {
		return nil, err
	}
	return open(cfg, nil)
}

// open builds the database from a validated config: partitions, then
// the protocol instance, logging to dir when it is non-nil.
func open(cfg config, dir *wal.Dir) (*DB, error) {
	db := &DB{cfg: cfg, walDir: dir}
	if cfg.Metrics != nil {
		db.mCommits = cfg.Metrics.NewCounter("granulock_engine_commits_total",
			"Transactions committed by the executable engine.")
		restarts := cfg.Metrics.NewCounterVec("granulock_engine_restarts_total",
			"Attempts aborted by the protocol and retried, by cause.", "cause")
		db.mRestarts = make(map[string]*obs.Counter, 4)
		for _, cause := range []string{"deadlock", "wounded", "die", "validation"} {
			db.mRestarts[cause] = restarts.With(cause)
		}
	}
	db.nodes = make([]*node, cfg.Nodes)
	for i := range db.nodes {
		// Round-robin partitioning: node i owns entities i, i+Nodes, ...
		count := (cfg.DBSize - i + cfg.Nodes - 1) / cfg.Nodes
		values := make([]int64, count)
		// Fill by doubling copies: memmove, not a scalar loop whose speed
		// hangs on where the linker happens to place it.
		for n := copy(values, []int64{cfg.InitialValue}); n < count; n *= 2 {
			copy(values[n:], values[:n])
		}
		db.nodes[i] = &node{values: values}
	}
	proto, _ := cc.Lookup(cfg.Protocol) // validated by newConfig
	inst, err := proto.New(cc.Config{
		Store:               store{db},
		EscalationThreshold: cfg.EscalationThreshold,
		Metrics:             cfg.Metrics,
		RecordUpdates:       dir != nil,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: protocol %s: %w", cfg.Protocol, err)
	}
	db.inst = inst
	return db, nil
}

// OpenDurable opens a file-backed durable database: a write-ahead
// directory at dir (one group-commit log per node, keyed by node index,
// plus the current snapshot), recovered into a fresh instance before
// the database accepts transactions. Reopening the same directory after
// a crash replays the snapshot and each log's tail; the returned stats
// describe that recovery (all zero for a brand-new directory).
//
// Checkpoint bounds future recovery time; Close flushes and releases
// the log files. Open's options apply, plus WithWALOptions for the
// underlying logs. The options are validated before dir is touched: a
// rejected configuration creates nothing.
func OpenDurable(dir string, dbsize int, opts ...Option) (*DB, wal.SetRecoverStats, error) {
	cfg, err := newConfig(dbsize, opts)
	if err != nil {
		return nil, wal.SetRecoverStats{}, err
	}
	d, err := wal.OpenDir(dir, cfg.Nodes, cfg.WALOptions...)
	if err != nil {
		return nil, wal.SetRecoverStats{}, err
	}
	db, err := open(cfg, d)
	if err != nil {
		d.Close()
		return nil, wal.SetRecoverStats{}, err
	}
	stats, err := d.Recover(func(entity, value int64) {
		if entity >= 0 && entity < int64(cfg.DBSize) {
			db.set(int(entity), value)
		}
	})
	if err != nil {
		d.Close()
		return nil, stats, err
	}
	// Continue transaction numbering above every ID surviving in the
	// logs: IDs key recovery's per-transaction evidence, so a fresh
	// instance reusing a surviving ID would merge two unrelated
	// transactions in the next recovery pass.
	db.nextTxn.Store(stats.MaxTxn)
	return db, stats, nil
}

// WALDir returns the database's write-ahead directory, or nil unless
// the database was opened with OpenDurable (crash harnesses use it to
// install failpoints).
func (db *DB) WALDir() *wal.Dir { return db.walDir }

// Close stops the fork's helpers, if a forked transaction started them,
// and flushes and releases the log files of an OpenDurable database.
// Transactions executed after Close run their work inline.
func (db *DB) Close() error {
	db.stopHelpers()
	if db.walDir != nil {
		return db.walDir.Close()
	}
	return nil
}

// Instance exposes the database's protocol instance (tests and tools).
func (db *DB) Instance() cc.Instance { return db.inst }

// nodeOf returns the owning node of an entity (round-robin).
func (db *DB) nodeOf(entity int) int { return entity % db.cfg.Nodes }

// localIndex returns an entity's slot within its owning node.
func (db *DB) localIndex(entity int) int { return entity / db.cfg.Nodes }

// GranuleOf returns the lock granule covering an entity.
func (db *DB) GranuleOf(entity int) lockmgr.Granule {
	return lockmgr.Granule(entity * db.cfg.Granules / db.cfg.DBSize)
}

// store adapts the database to cc.Store: latched single-entity access.
type store struct{ db *DB }

func (s store) Get(e int) int64 {
	n := s.db.nodes[s.db.nodeOf(e)]
	idx := s.db.localIndex(e)
	n.mu.Lock()
	v := n.values[idx]
	n.mu.Unlock()
	return v
}

func (s store) Apply(e int, delta int64) (before, after int64) {
	n := s.db.nodes[s.db.nodeOf(e)]
	idx := s.db.localIndex(e)
	n.mu.Lock()
	before = n.values[idx]
	after = before + delta
	n.values[idx] = after
	n.mu.Unlock()
	return before, after
}

func (s store) GranuleOf(e int) lockmgr.Granule { return s.db.GranuleOf(e) }

// lockScratch is the reusable per-call state of Execute: the staging
// buffer of the transaction's granule requests, the attempt's cc.Tx,
// which reaches the protocol through an interface and would otherwise be
// a heap object per attempt, and the fork's per-node share sizes and
// record. The protocol is done with the first two when End returns and
// the join with the fork before the reads and writes, so Execute takes
// one from a pool instead of building a map, four slices and a Tx per
// call.
type lockScratch struct {
	reqs   []lockmgr.Request
	idx    []int32 // dedupe's sort scratch
	tx     cc.Tx   // reset per attempt; its update buffer is kept
	counts []int   // plan's ops, then share sizes, per node
	fork   fork    // the forked work; see plan
}

var lockScratchPool = sync.Pool{New: func() any { return new(lockScratch) }}

// lockSet computes the deduplicated granule requests of a transaction
// into sc, in order of first appearance: exclusive if any op writes
// within the granule, shared otherwise. Ops that walk the entities in
// ascending order — the paper's sequential placement — are merged as
// they are appended; any other order is deduplicated afterwards.
func (db *DB) lockSet(sc *lockScratch, t Txn) ([]lockmgr.Request, error) {
	reqs := sc.reqs[:0]
	ascending := true
	for _, op := range t.Ops {
		if op.Entity < 0 || op.Entity >= db.cfg.DBSize {
			return nil, fmt.Errorf("engine: entity %d outside [0, %d)", op.Entity, db.cfg.DBSize)
		}
		g := db.GranuleOf(op.Entity)
		mode := lockmgr.ModeShared
		if op.Delta != 0 {
			mode = lockmgr.ModeExclusive
		}
		if n := len(reqs); n > 0 {
			last := &reqs[n-1]
			if last.Granule == g {
				last.Mode = max(last.Mode, mode)
				continue
			}
			ascending = ascending && last.Granule < g
		}
		reqs = append(reqs, lockmgr.Request{Granule: g, Mode: mode})
	}
	if !ascending {
		reqs = sc.dedupe(reqs)
	}
	sc.reqs = reqs
	return reqs, nil
}

// dedupe merges requests for the same granule into the first of them,
// in place: an index stably sorted by granule brings each granule's
// requests together, earliest first, without disturbing reqs' order.
func (sc *lockScratch) dedupe(reqs []lockmgr.Request) []lockmgr.Request {
	idx := sc.idx[:0]
	for i := range reqs {
		idx = append(idx, int32(i))
	}
	sc.idx = idx
	slices.SortStableFunc(idx, func(a, b int32) int {
		return cmp.Compare(reqs[a].Granule, reqs[b].Granule)
	})
	const merged = lockmgr.Mode(-1) // marks a request folded into an earlier one
	first := idx[0]
	for _, i := range idx[1:] {
		if reqs[i].Granule != reqs[first].Granule {
			first = i
			continue
		}
		reqs[first].Mode = max(reqs[first].Mode, reqs[i].Mode)
		reqs[i].Mode = merged
	}
	return slices.DeleteFunc(reqs, func(r lockmgr.Request) bool { return r.Mode == merged })
}

// Execute runs one transaction to commit under the configured protocol,
// returning the sum of all read entity values. Attempts the protocol
// aborts — deadlock victims, wound-wait wounds, wait-die deaths,
// optimistic validation failures — release everything, back off
// briefly (randomized exponential with a hard cap — immediate restart
// livelocks: the victim re-grabs its first granule before the survivor
// is scheduled and the same cycle re-forms forever), and retry until
// the context is cancelled; cancellation interrupts both lock waits
// and backoff sleeps promptly. Once an attempt holds its access rights,
// its Work forks over the nodes its ops touch and joins before the
// reads and writes (fork.go).
func (db *DB) Execute(ctx context.Context, t Txn) (int64, error) {
	if len(t.Ops) == 0 {
		return 0, nil
	}
	sc := lockScratchPool.Get().(*lockScratch)
	defer lockScratchPool.Put(sc)
	reqs, err := db.lockSet(sc, t)
	if err != nil {
		return 0, err
	}
	var priority int64
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		txnID := lockmgr.TxnID(db.nextTxn.Add(1))
		if priority == 0 {
			// The first attempt's identity is the transaction's age for
			// the rest of its life (wound-wait/wait-die anti-starvation).
			priority = int64(txnID)
		}
		tx := &sc.tx
		*tx = cc.Tx{ID: txnID, Priority: priority, Attempt: attempt, Updates: tx.Updates[:0]}
		actx := db.inst.Begin(ctx, tx)
		err := db.inst.Acquire(actx, tx, reqs)
		var sum int64
		if err == nil {
			if t.Work > 0 {
				db.work(sc, t)
			}
			for _, op := range t.Ops {
				if op.Delta != 0 {
					db.inst.Write(tx, op.Entity, op.Delta)
				} else {
					sum += db.inst.Read(tx, op.Entity)
				}
			}
			err = db.inst.Commit(ctx, tx, db.persistFn(txnID))
		}
		db.inst.End(tx)
		if err == nil {
			db.committed.Add(1)
			if db.mCommits != nil {
				db.mCommits.Inc()
			}
			return sum, nil
		}
		if cc.Restartable(err) {
			db.retries.Add(1)
			if c := db.mRestarts[cc.RestartKind(err)]; c != nil {
				c.Inc()
			}
			attempt++
			if err := sleepBackoff(ctx, attempt, uint64(txnID)); err != nil {
				return 0, err
			}
			continue
		}
		return 0, err
	}
}

// walScratch is the reusable per-commit record staging buffer. The
// persist hook completes durability before returning (enqueue-and-wait
// on the group-commit logs), so the buffers are free for reuse the
// moment the hook returns — a sync.Pool removes the per-commit slice
// allocation from the hot path.
type walScratch struct {
	records []wal.Record
	groups  []wal.PartGroup
}

var walScratchPool = sync.Pool{New: func() any { return new(walScratch) }}

// persistFn builds the durability hook the protocol invokes at its
// publish point: begin + update images + commit, made durable before
// any access right is released, so log order matches serialization
// order on every granule. The transaction's records are split by owning
// node (node index keys log index), appended to each touched log in
// ascending order and waited on through the batched flush, with the
// commit record in every touched log carrying the full partition mask —
// the cross-partition ordering rule wal.RecoverSet verifies. Read-only
// transactions skip logging entirely — they change nothing, so recovery
// does not need them. Nil for an in-memory database.
func (db *DB) persistFn(txnID lockmgr.TxnID) func([]cc.Update) error {
	if db.walDir == nil {
		return nil
	}
	id := int64(txnID)
	set := db.walDir.Set()
	return func(us []cc.Update) error {
		if len(us) == 0 {
			return nil
		}
		sc := walScratchPool.Get().(*walScratch)
		defer walScratchPool.Put(sc)
		var mask int64
		for _, u := range us {
			mask |= 1 << uint(db.nodeOf(u.Entity))
		}
		npart := bits.OnesCount64(uint64(mask))
		// Carve every partition's group out of one arena; the total is
		// known up front, so the appends below never reallocate and the
		// carved subslices stay valid.
		total := len(us) + 2*npart
		arena := sc.records[:0]
		if cap(arena) < total {
			arena = make([]wal.Record, 0, total)
		}
		groups := sc.groups[:0]
		for p := 0; p < set.Len(); p++ {
			if mask&(1<<uint(p)) == 0 {
				continue
			}
			start := len(arena)
			arena = append(arena, wal.Record{Kind: wal.KindBegin, Txn: id})
			for _, u := range us {
				if db.nodeOf(u.Entity) != p {
					continue
				}
				arena = append(arena, wal.Record{
					Kind:   wal.KindUpdate,
					Txn:    id,
					Entity: int64(u.Entity),
					Before: u.Before,
					After:  u.After,
				})
			}
			arena = append(arena, wal.Record{Kind: wal.KindCommit, Txn: id, Entity: mask})
			groups = append(groups, wal.PartGroup{Part: p, Records: arena[start:len(arena):len(arena)]})
		}
		sc.records = arena
		sc.groups = groups
		return set.Commit(groups)
	}
}

// Checkpoint writes a consistent snapshot of the whole database behind
// the logs' current sequence numbers and truncates the replayed
// prefixes, bounding future recovery time by the write rate since the
// checkpoint rather than by history. Only OpenDurable databases support
// it.
//
// Consistency comes from the concurrency-control protocol itself: the
// checkpoint runs a full-database read transaction, so at its publish
// point every granule is covered shared (or the full read set
// validated, under the optimistic protocol) — no writer holds anything,
// every committed write is already durable (persist happens before
// release), and the sequence vector captured inside the persist hook
// names exactly the log prefix the snapshot includes. Writers block for
// the duration; call it off the hot path.
func (db *DB) Checkpoint(ctx context.Context) error {
	if db.walDir == nil {
		return fmt.Errorf("engine: checkpoint needs an OpenDurable database")
	}
	t := db.FullReadTxn()
	reqs, err := db.lockSet(new(lockScratch), t)
	if err != nil {
		return err
	}
	var snap *wal.Snapshot
	var priority int64
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		txnID := lockmgr.TxnID(db.nextTxn.Add(1))
		if priority == 0 {
			priority = int64(txnID)
		}
		tx := &cc.Tx{ID: txnID, Priority: priority, Attempt: attempt}
		actx := db.inst.Begin(ctx, tx)
		err := db.inst.Acquire(actx, tx, reqs)
		if err == nil {
			entries := make([]wal.SnapshotEntry, 0, db.cfg.DBSize)
			for _, op := range t.Ops {
				entries = append(entries, wal.SnapshotEntry{
					Entity: int64(op.Entity),
					Value:  db.inst.Read(tx, op.Entity),
				})
			}
			err = db.inst.Commit(ctx, tx, func([]cc.Update) error {
				// Publish point: reads validated/covered, no concurrent
				// writer — the sequence vector and the entries describe
				// the same state.
				snap = &wal.Snapshot{Seqs: db.walDir.Set().Seqs(), Entries: entries}
				return nil
			})
		}
		db.inst.End(tx)
		if err == nil {
			break
		}
		if cc.Restartable(err) {
			attempt++
			if err := sleepBackoff(ctx, attempt, uint64(txnID)); err != nil {
				return err
			}
			continue
		}
		return err
	}
	return db.walDir.Install(snap)
}

// backoffCapAttempt bounds the exponential backoff window: attempts
// past it reuse the ~12.8ms ceiling instead of doubling forever.
const backoffCapAttempt = 7

// sleepBackoff waits a randomized, exponentially growing interval
// before a restart: 0–100µs after the first abort, doubling to a
// hard ~12.8ms ceiling (backoffCapAttempt). The jitter derives from
// the attempt's transaction id, so competing victims desynchronize.
// Context cancellation interrupts the sleep immediately.
func sleepBackoff(ctx context.Context, attempt int, seed uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if attempt > backoffCapAttempt {
		attempt = backoffCapAttempt
	}
	window := 100 * time.Microsecond << attempt
	// Cheap SplitMix-style jitter; no global rand contention.
	seed ^= seed << 13
	seed ^= seed >> 7
	seed ^= seed << 17
	delay := time.Duration(seed % uint64(window))
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// set overwrites one entity's value directly; recovery's redo hook.
func (db *DB) set(entity int, value int64) {
	n := db.nodes[db.nodeOf(entity)]
	n.mu.Lock()
	n.values[db.localIndex(entity)] = value
	n.mu.Unlock()
}

// Read returns one entity's value without transactional isolation
// (a dirty read used by tests and tooling).
func (db *DB) Read(entity int) (int64, error) {
	if entity < 0 || entity >= db.cfg.DBSize {
		return 0, fmt.Errorf("engine: entity %d outside [0, %d)", entity, db.cfg.DBSize)
	}
	n := db.nodes[db.nodeOf(entity)]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.values[db.localIndex(entity)], nil
}

// TotalBalance sums every entity — the conservation invariant checked by
// the consistency tests. It is not transactionally isolated; call it
// while the system is quiescent, or use a full-database read
// transaction for an isolated sum.
func (db *DB) TotalBalance() int64 {
	var total int64
	for _, n := range db.nodes {
		n.mu.Lock()
		for _, v := range n.values {
			total += v
		}
		n.mu.Unlock()
	}
	return total
}

// FullReadTxn returns a transaction reading every entity: with all
// granules covered shared (or the whole read set validated, under the
// optimistic protocol) it observes a serializable snapshot.
func (db *DB) FullReadTxn() Txn {
	ops := make([]Op, db.cfg.DBSize)
	for e := range ops {
		ops[e] = Op{Entity: e}
	}
	return Txn{Ops: ops}
}

// Transfer returns the classic funds-transfer transaction moving amount
// from one entity to another — the paper's §1 motivating example.
func Transfer(from, to int, amount int64) Txn {
	return Txn{Ops: []Op{
		{Entity: from, Delta: -amount},
		{Entity: to, Delta: amount},
	}}
}

// Stats returns an activity snapshot.
func (db *DB) Stats() Stats {
	s := Stats{
		Committed: db.committed.Load(),
		Restarts:  db.retries.Load(),
	}
	cs := db.inst.Stats()
	s.Lock = cs.Lock
	s.Escalations = cs.Escalations
	s.Wounds = cs.Wounds
	s.Dies = cs.Dies
	s.ValidationFails = cs.ValidationFails
	return s
}
