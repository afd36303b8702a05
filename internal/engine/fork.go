package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// A transaction's synthetic work is the executable analog of the
// paper's per-entity processing, and the paper runs it as one
// sub-transaction per processor that holds the transaction's entities:
// granted its preclaim, a transaction forks, each processor works on its
// own entities, and the sub-transactions join before the locks go.
// Execute splits Txn.Work into one share per node its ops touch (plan)
// and runs the shares on as many runners as there are processors free:
// the caller and the database's helpers, one goroutine per processor
// but the caller's. Whoever is free takes the next share, the caller
// waits only on a share that is already running, and the join comes
// before the reads and writes, Commit and End. Only the work forks: the
// protocol still sees one goroutine per cc.Tx.
//
// Helpers are sized to the processors, not to the nodes, because the
// work yields (spin): every yield of a runnable goroutine goes through
// the scheduler's run queue, and on the 2-vCPU reference host two
// spinning goroutines paid up to ≈0.9 µs per yield when both yielded at
// once. A goroutine beyond one per processor only adds turns through
// that queue.

// forkPoll bounds how long a helper that has run a share keeps looking
// for the next one, yielding between looks, before it parks. On the
// 2-vCPU reference host a goroutine readied onto the idle processor
// started only after 90–140 µs (median), longer than the ≈40 µs a whole
// benchmark transaction works: a helper that parked at once would leave
// every fork to run on its caller's processor. A transaction that
// follows within the bound finds the helpers awake.
const forkPoll = 50 * time.Microsecond

// forkPollEvery is how many looks a polling helper makes between checks
// of quit and of its forkPoll deadline: a look is an atomic load per
// empty fork slot, the checks a channel select and a clock read.
const forkPollEvery = 16

// forkMinShare is the least work, in spin iterations, a share is cut
// to; a node's smaller share is folded into the largest. On the 2-vCPU
// reference host, forking the 500-iteration shares of 4-op,
// 2000-iteration transactions at one granule (RunClosed, 8 clients, the
// sweep's and the ext-proto figures' workload) lost 1–20 % against
// running them inline, depending on how busy the host's other tenants
// kept its processors. The benchmark's transactions work 1000
// iterations per entity, so none of their shares is smaller; raising
// the bound to 2000 kept their small transactions inline and cost
// engine-coarse ≈12 % of its throughput (measured with one executor
// goroutine per node).
const forkMinShare = 1000

// fork is one forked transaction's shares. It rides in the pooled
// lockScratch and is reused by the next transaction that takes the
// scratch, so a helper may still hold it after its join: the
// generation in the claim word keeps such a helper off the shares of
// the reuse.
type fork struct {
	// word is generation<<32 | shares left: the next share is
	// work[left-1], and a runner that joined generation gen takes it by
	// moving left down with one CAS.
	word atomic.Uint64
	done atomic.Int32 // shares of the current generation run to the end
	// work holds the shares' sizes, smallest first, so the largest are
	// taken first. It is written only between generations and read only
	// by a runner that claimed a share of the current one.
	work []int
}

// post starts a new generation of the fork over its work and returns
// it. The previous generation's join has returned, so nobody runs its
// shares any more.
func (f *fork) post() uint32 {
	gen := uint32(f.word.Load()>>32) + 1
	f.done.Store(0)
	f.word.Store(uint64(gen)<<32 | uint64(len(f.work)))
	return gen
}

// claim takes the next share of generation gen for a runner that joined
// that generation. It fails once every share is taken, and for a runner
// holding an earlier generation: the record has been reused.
func (f *fork) claim(gen uint32) (int, bool) {
	for {
		w := f.word.Load()
		left := uint32(w)
		if uint32(w>>32) != gen || left == 0 {
			return 0, false
		}
		if f.word.CompareAndSwap(w, w-1) {
			return int(left - 1), true
		}
	}
}

// run runs claimed share i into db's sink and counts it for the join.
func (db *DB) run(f *fork, i int) {
	db.sink.Add(spin(f.work[i]))
	f.done.Add(1)
}

// Helper lifecycle states (helpers.state).
const (
	helpersNone    int32 = iota // not started: Open starts none
	helpersRunning              // started by the first transaction with shares to fork
	helpersClosed               // Close stopped them, or closed the database before any fork
)

// helpers are the database's share runners besides the callers: one
// goroutine per processor but one, counted once when they start. A
// forking caller posts its fork in a free slot, where polling helpers
// find it.
type helpers struct {
	state atomic.Int32 // helpersNone, helpersRunning or helpersClosed
	// Runners: callers running their Work, forked or not, and helpers
	// holding a share. A processor is free while they are fewer than
	// procs.
	working atomic.Int32
	holding atomic.Int32
	awake   atomic.Int32 // helpers not parked on wake
	// Set before state turns helpersRunning, read only after.
	procs int                    // GOMAXPROCS when the helpers started
	slots []atomic.Pointer[fork] // posted forks: procs/2, at least one
	wake  chan struct{}          // where parked helpers wait
	quit  chan struct{}
	mu    sync.Mutex // serializes starting and stopping
	wg    sync.WaitGroup
}

// plan splits t.Work into sc.fork's shares and returns the fork's
// degree: how many runners it asks for, min(shares, free processors).
// Node n's share is ⌊Work·cₙ/ops⌋ for its cₙ of t's ops; the rounding
// remainder and every share below forkMinShare are folded into the
// largest, and the shares are stored smallest first, so that claims
// take the largest first. A degree below 2 means no fork — run the work
// inline: no work, one node, a transaction on one node, no second share
// of forkMinShare, fewer than two processors free, or a closed database.
// The first plan with shares to fork starts the helpers.
func (db *DB) plan(sc *lockScratch, t Txn) int {
	nodes := db.cfg.Nodes
	if t.Work <= 0 || nodes < 2 {
		return 0
	}
	if cap(sc.counts) < nodes {
		sc.counts = make([]int, nodes)
	}
	sizes := sc.counts[:nodes]
	clear(sizes)
	for _, op := range t.Ops {
		sizes[db.nodeOf(op.Entity)]++
	}
	q, r := t.Work/len(t.Ops), t.Work%len(t.Ops)
	largest := 0
	for n, c := range sizes {
		sizes[n] = q*c + r*c/len(t.Ops) // ⌊Work·c/ops⌋ without overflow
		if sizes[n] > sizes[largest] {
			largest = n
		}
	}
	f := &sc.fork
	shares, rest := f.work[:0], t.Work
	for n, w := range sizes {
		if n != largest && w >= forkMinShare {
			shares = append(shares, w)
			rest -= w
		}
	}
	if len(shares) == 0 {
		return 0
	}
	shares = append(shares, rest)
	slices.Sort(shares)
	f.work = shares
	return min(len(shares), db.freeProcs())
}

// freeProcs returns the processors free for one transaction's shares:
// its caller's and those no other runner holds. It starts the helpers
// and returns 0 once the database is closed.
func (db *DB) freeProcs() int {
	h := &db.helpers
	if !db.startHelpers() {
		return 0
	}
	// The caller is one of working.
	return h.procs - int(h.working.Load()-1) - int(h.holding.Load())
}

// work runs t's synthetic work, forked when plan says so, inline
// otherwise; it returns once every share is done.
func (db *DB) work(sc *lockScratch, t Txn) {
	h := &db.helpers
	h.working.Add(1)
	defer h.working.Add(-1)
	degree := db.plan(sc, t)
	if degree < 2 {
		db.sink.Add(spin(t.Work))
		return
	}
	f := &sc.fork
	gen := f.post()
	slot := h.publish(f)
	if slot != nil {
		h.wakeUp(degree - 1)
	}
	for {
		i, ok := f.claim(gen)
		if !ok {
			break
		}
		db.run(f, i)
	}
	if slot != nil {
		slot.Store(nil)
	}
	// Join: every share is claimed; wait for those helpers still run.
	for int(f.done.Load()) < len(f.work) {
		runtime.Gosched()
	}
}

// publish posts f in a free slot and returns the slot, or nil when every
// slot holds another fork; f's caller then runs all of its shares.
func (h *helpers) publish(f *fork) *atomic.Pointer[fork] {
	for i := range h.slots {
		if h.slots[i].CompareAndSwap(nil, f) {
			return &h.slots[i]
		}
	}
	return nil
}

// wakeUp wakes parked helpers until n are awake without a share, or
// none is parked.
func (h *helpers) wakeUp(n int) {
	for idle := int(h.awake.Load() - h.holding.Load()); idle < n; idle++ {
		select {
		case h.wake <- struct{}{}:
		default:
			return
		}
	}
}

// startHelpers starts the helpers unless they run already, and reports
// whether they run; false once the database is closed.
func (db *DB) startHelpers() bool {
	h := &db.helpers
	switch h.state.Load() {
	case helpersRunning:
		return true
	case helpersClosed:
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Load() == helpersNone {
		h.procs = runtime.GOMAXPROCS(0)
		h.slots = make([]atomic.Pointer[fork], max(1, h.procs/2))
		h.quit = make(chan struct{})
		h.wake = make(chan struct{})
		for range h.procs - 1 {
			h.wg.Add(1)
			h.awake.Add(1)
			go db.helper()
		}
		h.state.Store(helpersRunning)
	}
	return h.state.Load() == helpersRunning
}

// stopHelpers stops the helpers, if any started, and waits for them to
// exit; forks after it run inline. A helper finishes the share it holds
// first; a share none claimed is run by its fork's caller.
func (db *DB) stopHelpers() {
	h := &db.helpers
	h.mu.Lock()
	running := h.state.Swap(helpersClosed) == helpersRunning
	if running {
		close(h.quit)
	}
	h.mu.Unlock()
	if running {
		h.wg.Wait()
	}
}

// helper runs the shares of the forks it finds posted, looks for the
// next fork for forkPoll after its last share before it parks on wake,
// and exits on quit.
func (db *DB) helper() {
	h := &db.helpers
	defer h.wg.Done()
	deadline := time.Now().Add(forkPoll)
	for looks := 1; ; looks++ {
		if f := h.posted(); f != nil && db.help(f) {
			deadline = time.Now().Add(forkPoll)
		}
		if looks%forkPollEvery == 0 {
			select {
			case <-h.quit:
				return
			default:
			}
			if time.Now().After(deadline) {
				h.awake.Add(-1)
				// One last look: a fork posted before the decrement
				// woke nobody, counting this helper awake.
				if h.posted() == nil {
					select {
					case <-h.wake:
					case <-h.quit:
						return
					}
				}
				h.awake.Add(1)
				deadline = time.Now().Add(forkPoll)
			}
		}
		runtime.Gosched()
	}
}

// posted returns a posted fork with a share left to claim, or nil. A
// fork stays posted until its caller finds every share taken, so one
// whose last share is running would otherwise hide the next slot's.
func (h *helpers) posted() *fork {
	for i := range h.slots {
		if f := h.slots[i].Load(); f != nil && uint32(f.word.Load()) > 0 {
			return f
		}
	}
	return nil
}

// help runs shares of f's current generation while a processor is free
// for them, and reports whether it ran any.
func (db *DB) help(f *fork) bool {
	h := &db.helpers
	gen := uint32(f.word.Load() >> 32)
	ran := false
	for {
		i, ok := h.take(f, gen)
		if !ok {
			return ran
		}
		db.run(f, i)
		h.holding.Add(-1)
		ran = true
	}
}

// take claims the next share of f's generation gen for a helper, which
// then holds it, when a processor is free for one more runner.
func (h *helpers) take(f *fork, gen uint32) (int, bool) {
	if int(h.working.Load()+h.holding.Load()) >= h.procs {
		return 0, false
	}
	i, ok := f.claim(gen)
	if ok {
		h.holding.Add(1)
	}
	return i, ok
}
