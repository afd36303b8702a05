package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A transaction's synthetic work is the executable analog of the
// paper's per-entity processing, and the paper runs it as one
// sub-transaction per processor that holds the transaction's entities:
// granted its preclaim, a transaction forks, each processor works on its
// own entities, and the sub-transactions join before the locks go. The
// engine does the same with one executor goroutine per node. Execute
// splits Txn.Work over the nodes its ops touch (plan), runs the first
// op's node's share itself, queues the others for the executors and
// joins them before the reads and writes, Commit and End. Only the work
// forks: the protocol still sees one goroutine per cc.Tx.
//
// The executors share one queue rather than one each. Goroutines are
// not bound to processors, so an executor is a node's only in name, and
// with one queue per node an executor whose node a transaction missed
// parked after forkPoll; the next share sent to it woke it on the
// caller's own processor, behind the caller. On 4-op transactions over
// random entities that made the fork 2–16 % slower than running the
// work inline. Parked executors therefore wait on a wake channel, never
// on the queue, so no share is ever handed to a parked goroutine, and a
// fork wakes executors until one is up for each share it queued.

// forkPoll bounds how long an executor that has run a share keeps
// polling for the next one, yielding between polls, before it parks.
// On the 2-vCPU reference host a goroutine readied onto the idle
// processor started only after 90–140 µs (median), longer than the
// ≈40 µs a whole benchmark transaction works: an executor that parked
// at once would leave every fork to run on its caller's processor. A
// transaction that follows within the bound finds executors awake.
const forkPoll = 50 * time.Microsecond

// forkQueue is the executors' queue capacity: a fork queues at most one
// share per node it touches besides its own, fewer than GOMAXPROCS
// transactions fork at once (a fork needs two free processors), and a
// share its caller reclaimed stays queued until an executor skips it. A
// share that does not fit costs only parallelism: its caller runs it.
const forkQueue = 64

// forkMinShare is the least work, in spin iterations, handed to an
// executor; a node's smaller share stays with the caller. On the 2-vCPU
// reference host, forking the 500-iteration shares of 4-op,
// 2000-iteration transactions at one granule (RunClosed, 8 clients, the
// sweep's and the ext-proto figures' workload) lost 1–20 % against
// running them inline, depending on how busy the host's other tenants
// kept its processors. The benchmark's transactions work 1000
// iterations per entity, so none of their shares is smaller; raising
// the bound to 2000 kept their small transactions inline, left the
// executors parked more often between forks, and cost engine-coarse
// ≈12 % of its throughput.
const forkMinShare = 1000

// Share states. A caller publishes a share pending; whoever moves it to
// taken — an executor, or the caller reclaiming it after its own share —
// runs it and sets it idle again, which is what the join waits for.
const (
	shareIdle int32 = iota
	sharePending
	shareTaken
)

// share is one node's part of a forked transaction's work. It lives in
// the pooled lockScratch and may outlive the fork in the executors'
// queue; a queued share that is no longer pending is skipped, so only
// the state word is touched before a successful claim.
type share struct {
	state atomic.Int32
	work  int // written only while no runner can claim the share
}

// claim makes the calling goroutine the share's runner.
func (s *share) claim() bool { return s.state.CompareAndSwap(sharePending, shareTaken) }

// run runs a claimed share into db's sink and releases it to the join.
func (s *share) run(db *DB) {
	db.sink.Add(spin(s.work))
	s.state.Store(shareIdle)
}

// Executor lifecycle states (executors.state).
const (
	execNone    int32 = iota // not started: Open starts none
	execRunning              // started by the first fork
	execClosed               // Close stopped them, or closed the database before any fork
)

// executors are the database's per-node goroutines. They start on the
// first transaction that forks, so opening and closing a database that
// never forks starts none.
type executors struct {
	state   atomic.Int32  // execNone, execRunning or execClosed
	working atomic.Int32  // transactions running their Work, forked or not
	active  atomic.Int32  // executors not parked on wake
	mu      sync.Mutex    // serializes starting and stopping
	queue   chan *share   // shares waiting for an executor
	wake    chan struct{} // where parked executors wait
	quit    chan struct{}
	wg      sync.WaitGroup
}

// plan splits t.Work over the nodes t's ops touch, in proportion to
// each node's op count, into sc.shares[i].work, and returns the node
// whose share the caller runs: the node of t's first op, which also
// takes the rounding remainder and every share below forkMinShare. It
// returns -1 — run the work inline — when there is nothing worth
// forking: no work, one node, a transaction on one node, no share of
// forkMinShare besides the caller's, or fewer than two processors
// (procs) free to run the shares on.
func (db *DB) plan(sc *lockScratch, t Txn, procs int) int {
	nodes := db.cfg.Nodes
	if t.Work <= 0 || nodes < 2 || procs < 2 {
		return -1
	}
	if cap(sc.counts) < nodes {
		sc.counts = make([]int, nodes)
	}
	counts := sc.counts[:nodes]
	clear(counts)
	for _, op := range t.Ops {
		counts[db.nodeOf(op.Entity)]++
	}
	if cap(sc.shares) < nodes {
		// Never grown in place: the executors' queue may still hold
		// pointers into the old array.
		sc.shares = make([]share, nodes)
	}
	shares := sc.shares[:nodes]
	home := db.nodeOf(t.Ops[0].Entity)
	q, r := t.Work/len(t.Ops), t.Work%len(t.Ops)
	caller, forked := t.Work, false
	for n, c := range counts {
		w := q*c + r*c/len(t.Ops) // ⌊Work·c/ops⌋ without overflow
		if n == home || w < forkMinShare {
			w = 0 // the caller's
		}
		shares[n].work = w
		caller -= w
		forked = forked || w > 0
	}
	if !forked {
		return -1
	}
	shares[home].work = caller
	return home
}

// work runs t's synthetic work, forked over the nodes its ops touch when
// plan says so and the executors run, inline otherwise; it returns once
// every share is done.
func (db *DB) work(sc *lockScratch, t Txn) {
	e := &db.execs
	// Transactions already working keep processors busy: the shares
	// get the processors they leave free.
	others := e.working.Add(1) - 1
	defer e.working.Add(-1)
	home := db.plan(sc, t, runtime.GOMAXPROCS(0)-int(others))
	if home < 0 || !db.startExecutors() {
		db.sink.Add(spin(t.Work))
		return
	}
	shares := sc.shares[:db.cfg.Nodes]
	queued := 0
	for n := range shares {
		s := &shares[n]
		if n == home || s.work == 0 {
			continue
		}
		s.state.Store(sharePending)
		select {
		case e.queue <- s:
			queued++
		default: // queue full: reclaimed below
		}
	}
	e.wakeUp(queued)
	db.sink.Add(spin(shares[home].work))
	// Join. A share no executor has claimed yet is run here: the caller
	// never waits on a queue, only on a share being run.
	for n := range shares {
		s := &shares[n]
		if n == home || s.work == 0 {
			continue
		}
		if s.claim() {
			s.run(db)
		}
		for s.state.Load() == shareTaken {
			runtime.Gosched()
		}
	}
}

// wakeUp wakes parked executors until n are active, or none is parked.
// Shares run side by side then, time-sliced where there are more of
// them than processors, and finish together.
func (e *executors) wakeUp(n int) {
	for active := int(e.active.Load()); active < n; active++ {
		select {
		case e.wake <- struct{}{}:
		default:
			return
		}
	}
}

// startExecutors starts the per-node executors unless they run already,
// and reports whether they run; false once the database is closed.
func (db *DB) startExecutors() bool {
	e := &db.execs
	switch e.state.Load() {
	case execRunning:
		return true
	case execClosed:
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() == execNone {
		e.quit = make(chan struct{})
		e.queue = make(chan *share, forkQueue)
		e.wake = make(chan struct{})
		for range db.cfg.Nodes {
			e.wg.Add(1)
			e.active.Add(1)
			go db.executor()
		}
		e.state.Store(execRunning)
	}
	return e.state.Load() == execRunning
}

// stopExecutors stops the executors, if any started, and waits for them
// to exit; forks after it run inline. A share still queued is reclaimed
// by its caller's join.
func (db *DB) stopExecutors() {
	e := &db.execs
	e.mu.Lock()
	running := e.state.Swap(execClosed) == execRunning
	if running {
		close(e.quit)
	}
	e.mu.Unlock()
	if running {
		e.wg.Wait()
	}
}

// executor is one node's goroutine: it runs the shares it finds queued,
// polls for forkPoll after each before it parks on wake, and exits on
// quit.
func (db *DB) executor() {
	e := &db.execs
	defer e.wg.Done()
	for {
		if s := poll(e.queue, e.quit); s != nil {
			if s.claim() {
				s.run(db)
			}
			continue
		}
		e.active.Add(-1)
		select {
		case <-e.wake:
			e.active.Add(1)
		case <-e.quit:
			return
		}
	}
}

// poll returns the next share queued within forkPoll, yielding the
// processor between looks, or nil when none came or quit closed.
func poll(queue <-chan *share, quit <-chan struct{}) *share {
	deadline := time.Now().Add(forkPoll)
	for {
		select {
		case s := <-queue:
			return s
		case <-quit:
			return nil
		default:
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		runtime.Gosched()
	}
}
