package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
	"granulock/internal/wal"
)

// The lock-service workloads drive an in-process locksrv.Server on
// loopback TCP through protocol v2 clients: lockConns() connections with
// lockInflight goroutines pipelining on each.
const (
	// lockInflight is the number of goroutines per connection. Four (the
	// issue's figure) leave locksrv-spread a fifth idle, so that its
	// throughput is its clients over a latency made of wake-ups, which
	// on a shared host moved it by 10 to 20 % from one minute to the
	// next; sixteen keep both processors busy, and the throughput is
	// what an operation costs. On locksrv-hot four block on a third of
	// their claims and the 99th percentile is what the two processors'
	// run queues make of it (800 to 1090 µs between runs of one binary);
	// sixteen block on most, the tail is the granules' queues, and it
	// repeats to a few per cent.
	lockInflight = 16
	// acquireTimeout bounds every acquire; an expiry is a failed
	// operation.
	acquireTimeout = time.Second
	// spreadGranules and spreadClaim shape locksrv-spread: claims of
	// spreadClaim granules drawn from spreadGranules, one in
	// spreadXEvery exclusive — uncontended.
	spreadGranules = 4096
	spreadClaim    = 4
	spreadXEvery   = 4
	// hotGranules and hotSpin shape locksrv-hot: one exclusive granule
	// of hotGranules, held for hotSpin client-side spin iterations.
	hotGranules = 8
	hotSpin     = 20000
	// batchSize is the number of claims per AcquireN/ReleaseN in the
	// batch probe.
	batchSize = 16
	// locksrvRate is an upper guess of lock-service operations per
	// second, used only to size recorders.
	locksrvRate = 150e3
)

func lockConns() int { return min(runtime.NumCPU(), 2) }

// grantJournal is lockd's -waldir journal (cmd/lockd keeps its own in
// package main): a grant is one update record per granule, made durable
// by the group-commit log before it is acknowledged; a release is one
// commit record.
type grantJournal struct{ log *wal.Log }

func (j grantJournal) Grant(txn lockmgr.TxnID, reqs []lockmgr.Request) error {
	recs := make([]wal.Record, len(reqs))
	for i, r := range reqs {
		recs[i] = wal.Record{Kind: wal.KindUpdate, Txn: int64(txn), Entity: int64(r.Granule), After: int64(r.Mode) + 1}
	}
	return j.log.Commit(recs)
}

func (j grantJournal) Release(txn lockmgr.TxnID) error {
	return j.log.Commit([]wal.Record{{Kind: wal.KindCommit, Txn: int64(txn)}})
}

// lockService is a running server, its table and its connected clients.
type lockService struct {
	srv     *locksrv.Server
	table   *lockmgr.Table
	served  chan error
	clients []*locksrv.ClientV2
	journal *wal.Log
}

// openLockService starts a server over a default lock table on a
// loopback port and dials its clients. With a journal path the server
// journals every grant to a file-backed log there.
func openLockService(journalPath string) (*lockService, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &lockService{table: lockmgr.NewTable(), served: make(chan error, 1)}
	var opts []locksrv.ServerOption
	if journalPath != "" {
		s.journal, err = wal.OpenFile(journalPath)
		if err != nil {
			lis.Close()
			return nil, err
		}
		opts = append(opts, locksrv.WithJournal(grantJournal{s.journal}))
	}
	s.srv = locksrv.NewServer(lis, s.table, opts...)
	go func() { s.served <- s.srv.Serve() }()
	for i := 0; i < lockConns(); i++ {
		c, err := locksrv.DialV2(lis.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close disconnects the clients, drains the server and waits for its
// accept loop to end.
func (s *lockService) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, c := range s.clients {
		keep(c.Close())
	}
	keep(s.srv.Close())
	keep(<-s.served)
	if s.journal != nil {
		keep(s.journal.Close())
	}
	return first
}

// goroutines is the number of client goroutines.
func (s *lockService) goroutines() int { return len(s.clients) * lockInflight }

// client returns goroutine c's connection.
func (s *lockService) client(c int) *locksrv.ClientV2 { return s.clients[c/lockInflight] }

// txnBase gives client c a transaction id range of its own.
func txnBase(c int) int64 { return int64(c+1) << 40 }

// claimStream returns client c's claim stream: one exclusive granule of
// hotGranules for the hot workload, spreadClaim of spreadGranules
// otherwise.
func claimStream(seed uint64, c int, hot bool) func() []lockmgr.Request {
	if hot {
		g := newLockGen(seed, c, 0, hotGranules)
		return func() []lockmgr.Request { return g.claim(1, 1, true) }
	}
	g := newLockGen(seed, c, 0, spreadGranules)
	return func() []lockmgr.Request { return g.claim(spreadClaim, spreadXEvery, true) }
}

// lockLoop is the lock-service client: acquire a claim, for the hot
// workload hold it while spinning, release it. With span logs it
// records a locksrv.op span per operation and a child span around each
// client call.
func lockLoop(s *lockService, seed uint64, hot bool, logs []*spanLog, spanCap int) clientLoop {
	return func(c int, stop *atomic.Bool, rec *recorder) {
		cl := s.client(c)
		next := claimStream(seed, c, hot)
		var sl *spanLog
		if logs != nil {
			sl = &spanLog{rec: rec, spans: make([]span, 0, spanCap)}
			logs[c] = sl
		}
		var sink int64
		for txn := txnBase(c); !stop.Load(); txn++ {
			reqs := next()
			start := rec.now()
			root := sl.begin(spLockOp, -1, txn)
			sp := sl.begin(spLockAcquire, root, txn)
			err := cl.AcquireAllTimeout(txn, reqs, acquireTimeout)
			sl.finish(sp)
			if err == nil {
				if hot {
					sp = sl.begin(spLockHold, root, txn)
					sink += spin(hotSpin)
					sl.finish(sp)
				}
				sp = sl.begin(spLockRelease, root, txn)
				err = cl.ReleaseAll(txn)
				sl.finish(sp)
			}
			sl.finish(root)
			rec.done(start, err)
		}
		spinSink.Add(sink)
	}
}

// batchLoop is the batch probe's client: batchSize claims per AcquireN,
// then one ReleaseN. An operation is one batch. Each client draws from
// a granule range of its own and the claims of a batch are disjoint, so
// that no claim waits for another one's release, which comes only after
// the whole batch was granted.
func batchLoop(s *lockService, seed uint64, failedClaims *atomic.Int64) clientLoop {
	return func(c int, stop *atomic.Bool, rec *recorder) {
		cl := s.client(c)
		per := spreadGranules / s.goroutines()
		g := newLockGen(seed, c, c*per, per)
		claims := make([]locksrv.Claim, batchSize)
		txns := make([]int64, batchSize)
		for txn := txnBase(c); !stop.Load(); txn += batchSize {
			g.claim(spreadClaim, spreadXEvery, true)
			for i := 1; i < batchSize; i++ {
				g.claim(spreadClaim, spreadXEvery, false)
			}
			for i := range claims {
				txns[i] = txn + int64(i)
				claims[i] = locksrv.Claim{Txn: txns[i], Reqs: g.reqs[i*spreadClaim : (i+1)*spreadClaim], Timeout: acquireTimeout}
			}
			start := rec.now()
			errs, err := cl.AcquireN(claims)
			if err == nil {
				var rerrs []error
				rerrs, err = cl.ReleaseN(txns)
				errs = append(errs, rerrs...)
			}
			rec.done(start, err)
			for _, e := range errs {
				if e != nil {
					failedClaims.Add(1)
				}
			}
		}
	}
}

// checkDrained requires that nothing is held or waiting at the server
// once its clients are idle, and that no client reconnected or retried.
func checkDrained(s *lockService, name string, checks *checkList) (locksrv.ServerStats, error) {
	_, st, err := s.clients[0].FullStats()
	if err != nil {
		return st, fmt.Errorf("%s: stats: %w", name, err)
	}
	if st.Holders != 0 || st.LockedGranules != 0 || st.Waiters != 0 {
		checks.fail("%s: server still has %d holders, %d locked granules, %d waiters", name, st.Holders, st.LockedGranules, st.Waiters)
	}
	var reconnects, retries int64
	for _, c := range s.clients {
		reconnects += c.Reconnects()
		retries += c.Retries()
	}
	if reconnects != 0 || retries != 0 {
		checks.fail("%s: clients made %d reconnects and %d retries on loopback", name, reconnects, retries)
	}
	return st, nil
}

func runLockService(cfg runCfg, name string, hot, trace bool) (out outcome, err error) {
	s, setupS, err := timeSetup(cfg.setupBudget(),
		func() (*lockService, error) { return openLockService("") },
		(*lockService).close)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	clients := s.goroutines()
	dur := cfg.dur
	if trace {
		dur = cfg.tracedWindow()
	}
	expect := expectOps(locksrvRate, dur, clients)
	plain := runWindow(clients, dur, expect, lockLoop(s, cfg.seed, hot, nil, 0))
	out.attempted, out.failed = plain.attempted, plain.failed
	before, err := checkDrained(s, name+" after the untraced window", &out.checks)
	if err != nil {
		return out, err
	}
	if !trace {
		out.vals = endToEndOf(plain)
		out.vals["setup_s"] = setupS
		return out, nil
	}

	logs := make([]*spanLog, clients)
	tableBefore, fastBefore := s.table.Stats(), s.table.FastStats()
	traced := runWindow(clients, dur, expect, lockLoop(s, cfg.seed, hot, logs, 4*expect))
	out.attempted, out.failed = traced.attempted, traced.failed
	st, err := checkDrained(s, name+" after the traced window", &out.checks)
	if err != nil {
		return out, err
	}
	tableAfter, fastAfter := s.table.Stats(), s.table.FastStats()
	times := timesByKind(logs, traced.from, traced.to)
	out.vals = values{
		"trace.overhead_ratio":       traced.tput() / plain.tput(),
		"process.cpu_us_per_op":      cpuPerOp(plain),
		"locksrv.acquire_us_p50":     times.us(spLockAcquire, 0.5),
		"locksrv.acquire_us_p99":     times.us(spLockAcquire, 0.99),
		"locksrv.release_us_p50":     times.us(spLockRelease, 0.5),
		"locksrv.release_us_p99":     times.us(spLockRelease, 0.99),
		"locksrv.server_wait_ms_p50": st.WaitP50MS,
		"locksrv.server_wait_ms_p99": st.WaitP99MS,
		"locksrv.timeouts":           float64(st.Timeouts - before.Timeouts),
		"locksrv.force_releases":     float64(st.ForceReleases - before.ForceReleases),
		"lockmgr.deadlocks":          float64(tableAfter.Deadlocks - tableBefore.Deadlocks),
	}
	if grants := tableAfter.Grants - tableBefore.Grants; grants > 0 {
		out.vals["lockmgr.fast_grant_ratio"] = float64(fastAfter.Grants-fastBefore.Grants) / float64(grants)
	}
	for _, c := range s.clients {
		out.vals["locksrv.reconnects"] += float64(c.Reconnects())
		out.vals["locksrv.retries"] += float64(c.Retries())
	}
	if traced.recorded > 0 {
		out.vals["lockmgr.blocks_per_op"] = float64(tableAfter.Blocks-tableBefore.Blocks) / float64(traced.recorded)
		out.vals["lockmgr.grants_per_op"] = float64(tableAfter.Grants-tableBefore.Grants) / float64(traced.recorded)
	}
	if cfg.traceDir != "" {
		if err := writeSpans(cfg.traceDir, name, logs); err != nil {
			return out, err
		}
	}

	rtt, err := statsRTT(s.clients[0], cfg.probeWindow()/2)
	if err != nil {
		return out, err
	}
	out.vals["locksrv.stats_rtt_us_p50"] = rtt

	replayLockmgr(out.vals, clients, cfg.probeWindow(), func(c int) func() []lockmgr.Request {
		return claimStream(cfg.seed, c, hot)
	})

	if hot || !cfg.probes {
		return out, nil
	}
	var failedClaims atomic.Int64
	pdur := cfg.probeWindow() * 3 / 2
	batch := runWindow(clients, pdur, expectOps(locksrvRate/batchSize, pdur, clients), batchLoop(s, cfg.seed, &failedClaims))
	if _, err := checkDrained(s, "locksrv.batch probe", &out.checks); err != nil {
		return out, err
	}
	if batch.failed > 0 || failedClaims.Load() > 0 {
		out.checks.fail("locksrv.batch probe: %d of %d batches and %d claims failed", batch.failed, batch.attempted, failedClaims.Load())
	}
	out.vals["locksrv.batch.tput_ops_s"] = batch.tput() * batchSize

	tput, err := journalProbe(cfg, pdur, &out.checks)
	if err != nil {
		return out, err
	}
	out.vals["locksrv.journal_on.tput_ops_s"] = tput
	return out, nil
}

// statsRTT measures the cheapest round trip the service offers — the
// stats op on an idle server: framing, syscalls and scheduling and
// nothing else — for about dur, and returns its median in microseconds.
func statsRTT(c *locksrv.ClientV2, dur time.Duration) (float64, error) {
	var lats []int64
	for start := time.Now(); len(lats) < 20 || time.Since(start) < dur; {
		t0 := time.Now()
		if _, err := c.Stats(); err != nil {
			return 0, fmt.Errorf("stats round trip: %w", err)
		}
		lats = append(lats, int64(time.Since(t0)))
	}
	slices.Sort(lats)
	return float64(quantile(lats, 0.5)) * usPerNs, nil
}

// journalProbe runs the locksrv-spread stream against a server that
// journals every grant to a file-backed log (the lockd -waldir path)
// and returns its throughput.
func journalProbe(cfg runCfg, dur time.Duration, checks *checkList) (tput float64, err error) {
	dir, err := os.MkdirTemp(cfg.dir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s, err := openLockService(filepath.Join(dir, "grants.log"))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	clients := s.goroutines()
	w := runWindow(clients, dur, expectOps(locksrvRate, dur, clients), lockLoop(s, cfg.seed, false, nil, 0))
	if _, err := checkDrained(s, "locksrv.journal_on probe", checks); err != nil {
		return 0, err
	}
	if w.failed > 0 {
		checks.fail("locksrv.journal_on probe: %d of %d operations failed", w.failed, w.attempted)
	}
	return w.tput(), nil
}
