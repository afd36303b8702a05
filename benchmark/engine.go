package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"granulock/internal/engine"
	"granulock/internal/engine/cc"
	"granulock/internal/lockmgr"
	"granulock/internal/wal"
)

// The engine workloads run the paper's transaction stream through
// engine.DB.Execute from engineClients goroutines (the paper's ntrans),
// on engineNodes shared-nothing nodes.
const (
	engineClients = 8
	engineNodes   = 4
	// initialValue seeds every entity, so the balance invariant is a
	// number a lost or doubled update cannot reproduce by accident.
	initialValue = 100
	balanceSum   = dbSize * initialValue
	// durableLinger is engine-durable's wal.WithFlushInterval: the
	// flusher of each log yields once before it takes its batch. With
	// the default (none) the workload has two regimes at GOMAXPROCS 2
	// that each last for seconds — every flush serving one committer
	// (about 3900 txn/s, p99 6.5 ms) or cohorts (about 4900 txn/s, p99
	// 4.4 ms), chosen by chance — because four flushers blocked in fsync
	// hold both Ps; no client count between 4 and 32 has one regime. A
	// bimodal workload can carry no bound. See README.md, engine-durable.
	durableLinger = time.Microsecond
	// optimumLtot is the measured optimum granularity on the paper's
	// input model; engine-durable and the cc.proto probe run there so
	// that locking is cheap and the layer under study dominates.
	optimumLtot = 64
)

// engineSpec describes one engine workload.
type engineSpec struct {
	name     string
	granules int
	maxK     int
	durable  bool
	// sweep and protos select the probes the workload's traced run
	// carries (the two probes are split over the two in-memory
	// workloads so that neither run is long).
	sweep, protos bool
}

var (
	engineCoarse  = engineSpec{name: "engine-coarse", granules: 1, maxK: 32, protos: true}
	engineFine    = engineSpec{name: "engine-fine", granules: dbSize, maxK: 32, sweep: true}
	engineDurable = engineSpec{name: "engine-durable", granules: optimumLtot, maxK: 8, durable: true}
)

// engineInst is an open database and, when durable, its log directory.
type engineInst struct {
	db   *engine.DB
	spec engineSpec
	// dir is the durable database's log directory; empty in memory.
	dir string
	// io counts the sink traffic of a durable database opened for a
	// traced run; nil otherwise.
	io *sinkCounts
}

// openEngine opens the workload's database under the named protocol: in
// memory through engine.Open, or, for a durable workload, through
// engine.OpenDurable on a fresh log directory under cfg.dir. counted
// puts a counting injector in front of the durable logs' sinks.
func openEngine(cfg runCfg, spec engineSpec, proto string, counted bool) (*engineInst, error) {
	inst := &engineInst{spec: spec}
	if !spec.durable {
		db, err := engine.Open(dbSize, inst.options(proto)...)
		inst.db = db
		return inst, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "durable-")
	if err != nil {
		return nil, err
	}
	inst.dir = dir
	if counted {
		inst.io = &sinkCounts{}
	}
	if inst.db, _, err = engine.OpenDurable(dir, dbSize, inst.options(proto)...); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return inst, nil
}

func (e *engineInst) options(proto string) []engine.Option {
	opts := []engine.Option{
		engine.WithNodes(engineNodes),
		engine.WithGranules(e.spec.granules),
		engine.WithProtocol(proto),
		engine.WithInitialValue(initialValue),
	}
	if e.spec.durable {
		opts = append(opts, engine.WithWALOptions(wal.WithFlushInterval(durableLinger)))
	}
	if e.io != nil {
		opts = append(opts, engine.WithWALOptions(wal.WithFaultInjector(e.io.inject)))
	}
	return opts
}

// reopen closes a durable database and opens it again from its log
// directory, which recovers it; it returns the recovery's stats and how
// long the reopening took.
func (e *engineInst) reopen() (wal.SetRecoverStats, time.Duration, error) {
	if err := e.db.Close(); err != nil {
		return wal.SetRecoverStats{}, 0, fmt.Errorf("%s: close: %w", e.spec.name, err)
	}
	start := time.Now()
	db, stats, err := engine.OpenDurable(e.dir, dbSize, e.options(engine.Conservative)...)
	took := time.Since(start)
	if err != nil {
		return stats, took, fmt.Errorf("%s: reopen: %w", e.spec.name, err)
	}
	e.db = db
	return stats, took, nil
}

// close closes the database and removes a durable one's directory.
func (e *engineInst) close() error {
	err := e.db.Close()
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// ackedCounts is what each client's loop saw acknowledged; every client
// writes only its own slot, and the slots are read after the window.
type ackedCounts struct {
	updateTxns []int64 // transactions that wrote something
	updates    []int64 // entity updates in those transactions
}

func newAckedCounts() *ackedCounts {
	return &ackedCounts{updateTxns: make([]int64, engineClients), updates: make([]int64, engineClients)}
}

func (a *ackedCounts) totals() (txns, ups int64) {
	for c := range a.updateTxns {
		txns += a.updateTxns[c]
		ups += a.updates[c]
	}
	return txns, ups
}

// executeLoop is the untraced client: one db.Execute per operation.
// With span logs it wraps each Execute in an engine.execute span.
func executeLoop(db *engine.DB, seed uint64, maxK int, acked *ackedCounts, logs []*spanLog, spanCap int) clientLoop {
	return func(c int, stop *atomic.Bool, rec *recorder) {
		g := newTxnGen(seed, c, maxK)
		var sl *spanLog
		if logs != nil {
			sl = &spanLog{rec: rec, spans: make([]span, 0, spanCap)}
			logs[c] = sl
		}
		ctx := context.Background()
		for op := int64(0); !stop.Load(); op++ {
			t := g.next()
			start := rec.now()
			sp := sl.begin(spExecute, -1, op)
			_, err := db.Execute(ctx, t)
			sl.finish(sp)
			rec.done(start, err)
			if err == nil && updates(t) {
				acked.updateTxns[c]++
				acked.updates[c] += int64(len(t.Ops) &^ 1)
			}
		}
	}
}

// spinSink keeps the compiler from removing spin's loop.
var spinSink atomic.Int64

// spin is the engine's lock-holding computation (engine.spin is not
// exported): n iterations of a mixing loop, yielding every 1024 the way
// a transaction yields for I/O while it holds its locks.
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

// stepCounts is what the stepping clients committed and restarted.
type stepCounts struct{ committed, restarts atomic.Int64 }

// stepTxnIDBase keeps the stepping driver's transaction ids apart from
// the ones Execute handed out on the same database.
const stepTxnIDBase = 1 << 40

// stepLoop is the traced client of the in-memory workloads: it steps
// db.Instance() through the sequence Execute performs — Begin, Acquire,
// work, Read/Write, Commit, End, retrying on a restart demand — with one
// span around each step and an engine.execute span around all of them.
func stepLoop(db *engine.DB, spec engineSpec, seed uint64, ids *atomic.Int64, counts *stepCounts, logs []*spanLog, spanCap int) clientLoop {
	inst := db.Instance()
	return func(c int, stop *atomic.Bool, rec *recorder) {
		g := newTxnGen(seed, c, spec.maxK)
		sl := &spanLog{rec: rec, spans: make([]span, 0, spanCap)}
		logs[c] = sl
		ctx := context.Background()
		var reqs []lockmgr.Request
		var sink int64
		for op := int64(0); !stop.Load(); op++ {
			t := g.next()
			start := rec.now()
			root := sl.begin(spExecute, -1, op)
			reqs = lockSet(reqs, t, spec.granules)
			var priority int64
			var err error
			for attempt := 0; ; attempt++ {
				id := stepTxnIDBase + ids.Add(1)
				if priority == 0 {
					priority = id
				}
				tx := &cc.Tx{ID: lockmgr.TxnID(id), Priority: priority, Attempt: attempt}

				sp := sl.begin(spBegin, root, op)
				actx := inst.Begin(ctx, tx)
				sl.finish(sp)

				sp = sl.begin(spAcquire, root, op)
				err = inst.Acquire(actx, tx, reqs)
				sl.finish(sp)

				if err == nil {
					sp = sl.begin(spWork, root, op)
					sink += spin(t.Work)
					sl.finish(sp)

					sp = sl.begin(spRW, root, op)
					for _, o := range t.Ops {
						if o.Delta != 0 {
							inst.Write(tx, o.Entity, o.Delta)
						} else {
							sink += inst.Read(tx, o.Entity)
						}
					}
					sl.finish(sp)

					sp = sl.begin(spCommit, root, op)
					err = inst.Commit(ctx, tx, nil)
					sl.finish(sp)
				}

				sp = sl.begin(spEnd, root, op)
				inst.End(tx)
				sl.finish(sp)

				if err == nil || !cc.Restartable(err) {
					break
				}
				counts.restarts.Add(1)
				runtime.Gosched()
			}
			sl.finish(root)
			rec.done(start, err)
			if err == nil {
				counts.committed.Add(1)
			}
		}
		spinSink.Add(sink)
	}
}

// engineRate is an upper guess of any engine workload's operations per
// second, used only to size recorders.
const engineRate = 80e3

// checkBalance fails the run if the database's balance sum moved.
func checkBalance(db *engine.DB, when string, checks *checkList) {
	if got := db.TotalBalance(); got != balanceSum {
		checks.fail("%s: TotalBalance %d, want %d", when, got, balanceSum)
	}
}

func runEngine(cfg runCfg, spec engineSpec, trace bool) (out outcome, err error) {
	inst, setupS, err := timeSetup(cfg.setupBudget(),
		func() (*engineInst, error) { return openEngine(cfg, spec, engine.Conservative, trace) },
		(*engineInst).close)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()

	acked := newAckedCounts()
	dur := cfg.dur
	if trace {
		dur = cfg.tracedWindow()
	}
	plain := runWindow(engineClients, dur, expectOps(engineRate, dur, engineClients),
		executeLoop(inst.db, cfg.seed, spec.maxK, acked, nil, 0))
	checkBalance(inst.db, spec.name+" after the untraced window", &out.checks)
	out.attempted, out.failed = plain.attempted, plain.failed
	if trace {
		out.vals = values{}
		if err := traceEngine(cfg, spec, inst, acked, plain, &out); err != nil {
			return out, err
		}
	} else {
		out.vals = endToEndOf(plain)
		out.vals["setup_s"] = setupS
	}
	if spec.durable {
		if err := checkReopen(inst, acked, out.vals, trace, &out.checks); err != nil {
			return out, err
		}
	}
	return out, nil
}

// traceEngine is the traced run after its untraced reference window
// plain: the traced window, the lock-table replay, and the workload's
// replays and probes.
func traceEngine(cfg runCfg, spec engineSpec, inst *engineInst, acked *ackedCounts, plain window, out *outcome) error {
	dur := cfg.tracedWindow()
	logs := make([]*spanLog, engineClients)
	expect := expectOps(engineRate, dur, engineClients)
	before := inst.db.Stats()
	var traced window
	if spec.durable {
		ioBefore := inst.io.snapshot()
		txBefore, upBefore := acked.totals()
		traced = runWindow(engineClients, dur, expect, executeLoop(inst.db, cfg.seed, spec.maxK, acked, logs, expect))
		txAfter, upAfter := acked.totals()
		walSinkMetrics(out.vals, inst.io.snapshot().sub(ioBefore), txAfter-txBefore, upAfter-upBefore)
		after := inst.db.Stats()
		if n := after.Committed - before.Committed; n > 0 {
			out.vals["engine.restart_ratio"] = float64(after.Restarts-before.Restarts) / float64(n)
		}
	} else {
		var ids atomic.Int64
		var counts stepCounts
		traced = runWindow(engineClients, dur, expect, stepLoop(inst.db, spec, cfg.seed, &ids, &counts, logs, 8*expect))
		if n := counts.committed.Load(); n > 0 {
			out.vals["engine.restart_ratio"] = float64(counts.restarts.Load()) / float64(n)
		}
	}
	checkBalance(inst.db, spec.name+" after the traced window", &out.checks)
	out.attempted, out.failed = traced.attempted, traced.failed
	out.vals["trace.overhead_ratio"] = traced.tput() / plain.tput()
	out.vals["process.cpu_us_per_op"] = cpuPerOp(plain)

	lock := inst.db.Stats().Lock
	if traced.recorded > 0 {
		out.vals["lockmgr.blocks_per_op"] = float64(lock.Blocks-before.Lock.Blocks) / float64(traced.recorded)
		out.vals["lockmgr.grants_per_op"] = float64(lock.Grants-before.Lock.Grants) / float64(traced.recorded)
	}
	out.vals["lockmgr.deadlocks"] = float64(lock.Deadlocks - before.Lock.Deadlocks)

	st := timesByKind(logs, traced.from, traced.to)
	out.vals["engine.execute_us_p50"] = st.us(spExecute, 0.5)
	out.vals["engine.execute_us_p99"] = st.us(spExecute, 0.99)
	if !spec.durable {
		out.vals["engine.self_us_p50"] = float64(quantile(st.self[spExecute], 0.5)) * usPerNs
		phases := 0.0
		for _, k := range []spanKind{spAcquire, spWork, spRW, spCommit, spEnd} {
			v := st.us(k, 0.5)
			out.vals[spanNames[k]+"_us_p50"] = v
			phases += v
		}
		out.vals["cc.acquire_us_p99"] = st.us(spAcquire, 0.99)
		out.vals["cc.commit_us_p99"] = st.us(spCommit, 0.99)
		out.vals["engine.residual_us"] = out.vals["engine.execute_us_p50"] - phases
	}
	if cfg.traceDir != "" {
		if err := writeSpans(cfg.traceDir, spec.name, logs); err != nil {
			return err
		}
	}

	replayLockmgr(out.vals, engineClients, cfg.probeWindow(), func(c int) func() []lockmgr.Request {
		g := newTxnGen(cfg.seed, c, spec.maxK)
		var reqs []lockmgr.Request
		return func() []lockmgr.Request {
			reqs = lockSet(reqs, g.next(), spec.granules)
			return reqs
		}
	})

	if spec.durable {
		if err := replayWAL(cfg, out.vals); err != nil {
			return err
		}
	}
	if !cfg.probes {
		return nil
	}
	if spec.sweep {
		best := 0.0
		for _, ltot := range sweepLtot {
			probe := engineSpec{name: fmt.Sprintf("engine.sweep ltot=%d", ltot), granules: ltot, maxK: 32}
			tput, _, err := engineProbe(cfg, probe, engine.Conservative, &out.checks)
			if err != nil {
				return err
			}
			out.vals[fmt.Sprintf("engine.sweep.tput_ops_s.ltot%d", ltot)] = tput
			if tput > best {
				best = tput
				out.vals["engine.sweep.ltot_opt"] = float64(ltot)
			}
		}
	}
	if spec.protos {
		for _, proto := range protoNames {
			probe := engineSpec{name: "cc.proto " + proto, granules: optimumLtot, maxK: 32}
			tput, restarts, err := engineProbe(cfg, probe, proto, &out.checks)
			if err != nil {
				return err
			}
			out.vals["cc.proto.tput_ops_s."+proto] = tput
			out.vals["cc.proto.restart_ratio."+proto] = restarts
		}
	}
	return nil
}

// engineProbe runs the in-memory transaction stream for a probe window
// on a fresh database (in memory, so there is nothing to
// close) and returns its throughput and restarts per commit.
func engineProbe(cfg runCfg, spec engineSpec, proto string, checks *checkList) (tput, restartRatio float64, err error) {
	inst, err := openEngine(cfg, spec, proto, false)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	dur := cfg.probeWindow()
	w := runWindow(engineClients, dur, expectOps(engineRate, dur, engineClients),
		executeLoop(inst.db, cfg.seed, spec.maxK, newAckedCounts(), nil, 0))
	checkBalance(inst.db, spec.name, checks)
	if w.failed > 0 {
		checks.fail("%s: %d of %d transactions failed", spec.name, w.failed, w.attempted)
	}
	st := inst.db.Stats()
	if st.Committed > 0 {
		restartRatio = float64(st.Restarts) / float64(st.Committed)
	}
	return w.tput(), restartRatio, nil
}

// checkRecovered requires of a recovery after a clean close that it lost
// nothing: the balance invariant holds, every acknowledged update
// transaction was redone, and no transaction was found cut across
// partitions.
func checkRecovered(name string, balance int64, stats wal.SetRecoverStats, acked *ackedCounts, checks *checkList) {
	if balance != balanceSum {
		checks.fail("%s: recovered balance %d, want %d", name, balance, balanceSum)
	}
	if ackedTxns, _ := acked.totals(); int64(stats.Committed) < ackedTxns {
		checks.fail("%s: recovery redid %d transactions, %d update transactions were acknowledged", name, stats.Committed, ackedTxns)
	}
	if stats.CrossPartial != 0 || stats.OrderViolations != 0 {
		checks.fail("%s: recovery after a clean close found %d cross-partition partials and %d order violations", name, stats.CrossPartial, stats.OrderViolations)
	}
}

// checkReopen closes the durable database after its windows and reopens
// it, which recovers it from its log files through the public durable
// path, and checks what came back. A traced run also reports what the
// recovery cost.
func checkReopen(inst *engineInst, acked *ackedCounts, vs values, trace bool, checks *checkList) error {
	stats, took, err := inst.reopen()
	if err != nil {
		return err
	}
	checkRecovered(inst.spec.name, inst.db.TotalBalance(), stats, acked, checks)
	if !trace || stats.Committed == 0 {
		return nil
	}
	records := 0
	for _, l := range stats.Logs {
		records += l.Records
	}
	vs["wal.recover_ms_per_ktxn"] = took.Seconds() * 1e3 / (float64(stats.Committed) / 1e3)
	vs["wal.recover_records_per_s"] = float64(records) / took.Seconds()
	return nil
}
