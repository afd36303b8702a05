// Package locksrv exposes the granule lock table over TCP: a central
// lock manager for shared-nothing clusters whose nodes are separate
// processes. The paper's systems (Tandem, Teradata, Gamma) distribute
// lock management; this package supplies the network substrate for the
// same experiments to run across process boundaries — conservative
// all-or-nothing claims, blocking grants, and release, with the same
// semantics as calling internal/lockmgr in-process.
//
// The wire protocol is length-prefixed binary frames with request ids,
// announced by the 4-byte magic "GLK2": requests pipeline, a claim that
// must wait parks without holding up the requests behind it, and
// responses return out of order as each completes, so one connection
// carries many in-flight operations — including batched
// acquireN/releaseN — with responses coalesced into few writes (see
// server2.go, proto2.go and docs/LOCKSRV.md). A connection that opens with anything
// but the magic is closed. A dropped connection releases every lock its
// transactions still hold, so client crashes cannot strand granules.
//
// The service is hardened for real deployments: acquires carry an
// optional wait deadline (timeout_ms) and fail with a distinguishable
// timeout status instead of blocking forever; idle sessions
// are reaped after a configurable read deadline; Close drains
// gracefully (stop accepting, let in-flight requests finish within a
// grace period, then force-release); and a release for a transaction
// granted on a different live session is rejected rather than yanking
// locks out from under their owner — while retries racing a dead
// predecessor session's teardown (acquire or release resent across a
// reconnect) wait the teardown out instead of failing. See
// docs/LOCKSRV.md for the wire protocol, the error taxonomy and the
// stats schema.
package locksrv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/obs"
)

// statsReply is the JSON body of a stats response: the one payload that
// is not fixed-width binary, because its schema changes more often than
// the hot-path ops.
type statsReply struct {
	Stats  *lockmgr.Stats `json:"stats"`
	Server *ServerStats   `json:"server"`
}

// ServerStats is the service-level half of the "stats" op: session and
// waiter gauges, the acquire outcome counters, and wait-time quantiles
// over the server's life.
type ServerStats struct {
	Sessions       int64 `json:"sessions"`        // currently open sessions
	SessionsTotal  int64 `json:"sessions_total"`  // sessions ever opened
	Holders        int64 `json:"holders"`         // txns currently holding locks
	LockedGranules int64 `json:"locked_granules"` // granules with a holder
	Waiters        int64 `json:"waiters"`         // requests currently parked

	Grants          int64 `json:"grants"`           // acquires granted
	Timeouts        int64 `json:"timeouts"`         // acquires expired (timeout_ms)
	Cancels         int64 `json:"cancels"`          // acquires aborted by shutdown/disconnect
	ForceReleases   int64 `json:"force_releases"`   // txns released at session teardown
	ForeignReleases int64 `json:"foreign_releases"` // releases rejected as not_owner
	IdleReaps       int64 `json:"idle_reaps"`       // sessions reaped for idleness

	// Wait-time quantiles in milliseconds over every completed acquire
	// (granted or timed out), estimated from the acquire-wait histogram
	// (obs.Histogram.Quantile); WaitSamples is its count. Zero when no
	// samples.
	WaitP50MS   float64 `json:"wait_p50_ms"`
	WaitP90MS   float64 `json:"wait_p90_ms"`
	WaitP99MS   float64 `json:"wait_p99_ms"`
	WaitSamples int64   `json:"wait_samples"`

	// Cluster is the node's failover counters; nil on unclustered
	// servers, so single-node deployments keep their wire schema.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ownerRaceWait bounds how long a request for a transaction owned by an
// apparently-live other session keeps waiting before the conflict is
// declared real. A client retrying across a reconnect closes its old
// connection first, but TCP orders nothing across connections: the
// retry can reach the server before the predecessor's disconnect is
// even detected, so for a short window a dying owner is
// indistinguishable from a live peer. Genuine cross-session conflicts
// (duplicate txn ids, foreign releases) are protocol bugs, so delaying
// their error by this bound costs nothing real.
const ownerRaceWait = 250 * time.Millisecond

// writeTimeout bounds each response write, so a client that stops
// reading cannot wedge the goroutine flushing its session's replies.
const writeTimeout = 10 * time.Second

// session is one connection's server-side state.
type session struct {
	conn net.Conn
	// ctx is done once the session is condemned; the goroutines of its
	// requests that wait on anything but the lock table select on it.
	// cancel ends it.
	ctx    context.Context
	cancel context.CancelFunc
	// closing is set the moment the session is condemned (disconnect,
	// idle reap, forced drain, teardown), possibly before its teardown
	// has force-released its grants. Requests arriving for this
	// session's transactions on other sessions — a client that
	// reconnected after a transport fault and retried — use it to tell
	// "owned by a dying predecessor, wait out its teardown" from "owned
	// by a live peer, genuine protocol violation".
	closing atomic.Bool

	// pending counts requests decoded but not yet answered: parked
	// claims and requests whose goroutine waits on the journal, a
	// recovery window or a predecessor's teardown (any other request is
	// answered before the next is decoded). waiting is set while the
	// session's own goroutine sleeps on wake for pending to fall — below
	// the in-flight cap, or to zero at session end.
	pending atomic.Int64
	waiting atomic.Bool
	wake    chan struct{}

	// The write side (writer.go): replies are appended by whichever
	// goroutine produced them. The session's reader owns the buffer while
	// it runs and gives it up while it is blocked (server2.go).
	w connWriter

	// Claims parked in the lock table as continuations (server2.go).
	pmu        sync.Mutex
	parked     map[*parkedAcquire]struct{}
	parkClosed bool // session end has begun: nothing parks any more

	reqs []lockmgr.Request // the reader's decode scratch
}

func newSession(conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{
		conn:   conn,
		ctx:    ctx,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
		parked: make(map[*parkedAcquire]struct{}),
	}
	sess.w.init(conn)
	sess.w.own() // the reader is about to run
	return sess
}

// shutdown condemns the session: marks it closing, then cancels its
// context to end the waits of its requests' goroutines and wake its own
// goroutine, which withdraws the session's parked claims.
func (sess *session) shutdown() {
	sess.closing.Store(true)
	sess.cancel()
}

// ownerStripes is the number of stripes of the owners record.
const (
	ownerStripeBits = 6
	ownerStripes    = 1 << ownerStripeBits
)

// ownerStripe is one stripe of Server.owners.
type ownerStripe struct {
	mu sync.Mutex
	m  map[lockmgr.TxnID]*session
}

// ownerStripe returns the stripe recording txn's owner.
//
//granulint:hotpath
func (s *Server) ownerStripe(txn lockmgr.TxnID) *ownerStripe {
	// Fibonacci hashing: transaction ids are often sequential per client
	// with a client number in the high bits.
	return &s.owners[uint64(txn)*0x9e3779b97f4a7c15>>(64-ownerStripeBits)]
}

// ownerOf returns the session txn is recorded as granted on, if any.
func (s *Server) ownerOf(txn lockmgr.TxnID) (*session, bool) {
	o := s.ownerStripe(txn)
	o.mu.Lock()
	owner, ok := o.m[txn]
	o.mu.Unlock()
	return owner, ok
}

// setOwner records txn as granted on sess.
//
//granulint:hotpath
func (s *Server) setOwner(txn lockmgr.TxnID, sess *session) {
	o := s.ownerStripe(txn)
	o.mu.Lock()
	o.m[txn] = sess
	o.mu.Unlock()
}

// Server serves a lock table over a listener. Create with NewServer,
// start with Serve (blocking) or in a goroutine, stop with Close
// (graceful drain).
type Server struct {
	table       *lockmgr.Table
	lis         net.Listener
	grace       time.Duration
	idleTimeout time.Duration

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	// owners is the one record of the session each transaction was
	// granted on, striped by transaction id: every grant and release of
	// every session passes through it (setOwner, releaseOwned), and a
	// session's teardown walks all of it.
	owners [ownerStripes]ownerStripe

	// pfree recycles the records of parked acquires (server2.go), at
	// most pfreeMax of them.
	pfmu     sync.Mutex
	pfree    []*parkedAcquire
	pfreeMax int

	om *serverMetrics // always non-nil after NewServer

	// cluster is non-nil when the server is one node of a partitioned
	// cluster (WithCluster); nil servers serve the whole namespace.
	cluster *clusterState

	// journal, when non-nil (WithJournal), records every grant before
	// its acknowledgement and every release after it.
	journal Journal
}

// serverMetrics holds the service counters as registry series. Every
// server has one: WithMetrics points it at the caller's registry for
// scraping; otherwise the series live on a private registry and serve
// only as the backing store for the wire "stats" op.
type serverMetrics struct {
	sessionsTotal   *obs.Counter
	grants          *obs.Counter
	timeouts        *obs.Counter
	cancels         *obs.Counter
	forceReleases   *obs.Counter
	foreignReleases *obs.Counter
	idleReaps       *obs.Counter
	waitMS          *obs.Histogram

	// Frame pipeline families (the v2_ in their names is kept: see
	// docs/OBSERVABILITY.md).
	v2Sessions    *obs.Counter
	framesRead    *obs.Counter
	framesWritten *obs.Counter
	batchOps      *obs.Counter

	// Cluster families: zero on unclustered servers.
	clusterTakeovers    *obs.Counter
	clusterReasserts    *obs.Counter
	clusterLeaseExpired *obs.Counter
	clusterRedirects    *obs.Counter
	clusterParked       *obs.Counter
}

// newServerMetrics registers the locksrv families on reg for s. The
// gauges read the server's live state at scrape time, so one server
// per registry.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	reg.NewGaugeFunc("granulock_locksrv_sessions",
		"Sessions currently open.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	reg.NewGaugeFunc("granulock_locksrv_holders",
		"Transactions currently holding locks in the served table.",
		func() float64 { return float64(s.table.HoldersCount()) })
	reg.NewGaugeFunc("granulock_locksrv_locked_granules",
		"Granules with at least one holder in the served table.",
		func() float64 { return float64(s.table.LockedGranules()) })
	reg.NewGaugeFunc("granulock_locksrv_waiters",
		"Requests currently parked in the served table.",
		func() float64 { return float64(s.table.WaitersCount()) })
	reg.NewGaugeFunc("granulock_locksrv_inflight",
		"Requests decoded but not yet responded to, across all sessions.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := int64(0)
			for sess := range s.sessions {
				n += sess.pending.Load()
			}
			return float64(n)
		})
	reg.NewGaugeFunc("granulock_locksrv_cluster_recovering",
		"Adopted partitions whose lease-reassert recovery window is still open.",
		func() float64 {
			// s.cluster is set during option application, possibly after
			// this closure is registered; read it at scrape time.
			if cl := s.cluster; cl != nil {
				return float64(cl.recoveringCount())
			}
			return 0
		})
	return &serverMetrics{
		sessionsTotal: reg.NewCounter("granulock_locksrv_sessions_opened_total",
			"Sessions ever opened."),
		grants: reg.NewCounter("granulock_locksrv_grants_total",
			"Acquires granted."),
		timeouts: reg.NewCounter("granulock_locksrv_timeouts_total",
			"Acquires expired before their grant (timeout_ms)."),
		cancels: reg.NewCounter("granulock_locksrv_cancels_total",
			"Acquires aborted by disconnect or drain."),
		forceReleases: reg.NewCounter("granulock_locksrv_force_releases_total",
			"Transactions force-released at session teardown."),
		foreignReleases: reg.NewCounter("granulock_locksrv_foreign_releases_total",
			"Releases rejected as not_owner."),
		idleReaps: reg.NewCounter("granulock_locksrv_idle_reaps_total",
			"Sessions reaped for idleness."),
		waitMS: reg.NewHistogram("granulock_locksrv_acquire_wait_ms",
			"Acquire wait time in milliseconds (granted or timed out).",
			append([]float64{0}, obs.ExpBuckets(0.5, 2, 16)...)), // immediate, then 0.5ms .. ~16s
		v2Sessions: reg.NewCounter("granulock_locksrv_v2_sessions_total",
			"Sessions that opened with the protocol magic and entered the frame loop."),
		framesRead: reg.NewCounter("granulock_locksrv_v2_frames_read_total",
			"Request frames read."),
		framesWritten: reg.NewCounter("granulock_locksrv_v2_frames_written_total",
			"Response frames written."),
		batchOps: reg.NewCounter("granulock_locksrv_v2_batch_subops_total",
			"Sub-operations carried inside acquireN/releaseN batch frames."),
		clusterTakeovers: reg.NewCounter("granulock_locksrv_cluster_takeovers_total",
			"Dead-node partitions adopted by this node."),
		clusterReasserts: reg.NewCounter("granulock_locksrv_cluster_reasserted_txns_total",
			"Transactions reconstructed from client lease re-asserts after a takeover."),
		clusterLeaseExpired: reg.NewCounter("granulock_locksrv_cluster_lease_expired_total",
			"Lease re-asserts refused: window sealed, grants conflicted, or owner alive."),
		clusterRedirects: reg.NewCounter("granulock_locksrv_cluster_redirects_total",
			"Requests redirected to the node owning their granules."),
		clusterParked: reg.NewCounter("granulock_locksrv_cluster_parked_acquires_total",
			"Acquires parked behind an open partition-recovery window."),
	}
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithGrace sets the drain grace period: how long Close waits for
// in-flight requests (including blocked acquires that may yet be
// granted by a concurrent release) before force-cancelling them. Zero
// forces immediately. Default 500ms.
func WithGrace(d time.Duration) ServerOption {
	return func(s *Server) { s.grace = d }
}

// WithIdleTimeout reaps sessions that send no request for d: each read
// carries a deadline of d, and a session whose deadline expires is
// closed and its locks released, exactly as if it had disconnected.
// Zero (the default) disables reaping.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithMetrics registers the service's metric families on reg (family
// prefix granulock_locksrv_): session/grant/timeout/cancel/
// force-release counters, an acquire-wait histogram, and scrape-time
// gauges for open sessions and table occupancy. One server per
// registry: the gauges read this server's state. Without this option
// the same counters back the wire "stats" op from a private registry.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.om = newServerMetrics(reg, s) }
}

// NewServer returns a Server around table (a fresh table if nil)
// accepting on lis.
func NewServer(lis net.Listener, table *lockmgr.Table, opts ...ServerOption) *Server {
	if table == nil {
		table = lockmgr.NewTable()
	}
	s := &Server{
		table:    table,
		lis:      lis,
		grace:    500 * time.Millisecond,
		sessions: make(map[*session]struct{}),
		pfreeMax: parkedFreeMax,
	}
	for i := range s.owners {
		s.owners[i].m = make(map[lockmgr.TxnID]*session)
	}
	for _, o := range opts {
		o(s)
	}
	if s.om == nil {
		s.om = newServerMetrics(obs.NewRegistry(), s)
	}
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Table returns the underlying lock table, so an embedding process can
// inspect residual state (e.g. after a drain).
func (s *Server) Table() *lockmgr.Table { return s.table }

// Serve accepts connections until the listener closes. It returns nil
// after Close. In cluster mode Serve also starts the predecessor
// heartbeat monitor (see WithCluster).
func (s *Server) Serve() error {
	if s.cluster != nil {
		s.cluster.startMonitor(s)
	}
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("locksrv: accept: %w", err)
		}
		sess := newSession(conn)
		sess.w.timeout = writeTimeout
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			sess.cancel()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.om.sessionsTotal.Inc()
		go s.handle(sess)
	}
}

// Close drains the server gracefully: stop accepting, stop reading new
// requests, give in-flight requests the grace period to finish (a
// blocked acquire may still be granted by a concurrent release), then
// force-cancel whatever remains and release every session's locks.
// After Close returns the table holds nothing on behalf of any session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Expire every session's pending read: idle sessions exit at once,
	// busy ones finish their current request, write its response, and
	// exit on the next read. Writes are unaffected.
	now := time.Now()
	for sess := range s.sessions {
		sess.conn.SetReadDeadline(now)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	if s.cluster != nil {
		s.cluster.stopMonitor()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.grace):
		// Grace expired: force, in two phases. Cancelling a session's
		// context makes it withdraw its parked claims and ends its
		// requests' other waits, all of which respond with the typed
		// "closed" code — but only if the connection survives long
		// enough for those responses to be written. Closing the conn in
		// the same breath as the cancel loses that race: pipelined
		// clients see a bare transport error instead of "closed" and
		// burn their whole retry budget against a dead listener. So
		// cancel everything first, give the sessions a bounded window
		// to answer, and hard-close only the stragglers.
		s.mu.Lock()
		for sess := range s.sessions {
			sess.shutdown()
		}
		s.mu.Unlock()
		flush := s.grace
		if flush > forceFlushWait {
			flush = forceFlushWait
		}
		select {
		case <-done:
		case <-time.After(flush):
			s.mu.Lock()
			for sess := range s.sessions {
				sess.conn.Close()
			}
			s.mu.Unlock()
		}
		<-done
	}
	return err
}

// forceFlushWait caps how long the forced drain waits for cancelled
// sessions to flush their typed "closed" responses before hard-closing
// their connections. A session that cannot flush within this window is
// wedged (stalled client, full socket buffer); its clients get the
// transport error they were always going to get.
const forceFlushWait = 250 * time.Millisecond

// sessionReader feeds a session's frame reader from its conn while
// managing read deadlines. It distinguishes the three ways a read can
// end: real disconnect (EOF/reset), idle reap (deadline expired with no
// request executing), and drain (the server expired the deadline to
// stop new requests). A deadline that fires while a request is still
// executing is not idleness — the deadline is re-armed and the read
// retried, so a session blocked in a long acquire is never reaped under
// its client, which is silently waiting for the response.
//
// Every read of the connection may block, so for each the reader gives
// up the session's write buffer (connWriter.release, own): replies still
// buffered are written out first, and replies other goroutines produce
// meanwhile are written out by them.
type sessionReader struct {
	s      *Server
	sess   *session
	reaped bool // ended by idle reap
	// burst is the size of the last read, until the replies to the first
	// half of it have been written out (handle).
	burst int
}

func (r *sessionReader) Read(p []byte) (int, error) {
	conn := r.sess.conn
	for {
		if r.s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(r.s.idleTimeout))
			if r.s.draining() {
				// Drain began between arming and this check; restore
				// its expired deadline so this read cannot linger.
				conn.SetReadDeadline(time.Now())
			}
		}
		r.sess.w.release()
		n, err := conn.Read(p)
		r.sess.w.own()
		if n > 0 {
			r.burst = n
			return n, nil // deliver data; any error will recur
		}
		if err == nil {
			continue
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			return 0, err // disconnect: EOF, reset, closed
		}
		if r.s.draining() {
			return 0, err // drain: stop reading new requests
		}
		if r.sess.pending.Load() > 0 {
			continue // a request is parked or executing; the session is not idle
		}
		r.reaped = r.s.idleTimeout > 0
		return 0, err
	}
}

// teardown ends a session: condemn it, close its connection, and
// force-release every transaction recorded as granted on it. Every
// request of the session has been answered (see handle), so nothing
// records a grant on it any more. The owner record is one for all
// sessions, so finding the session's transactions walks every stripe.
func (s *Server) teardown(sess *session) {
	sess.shutdown()
	sess.conn.Close()
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	var owned []lockmgr.TxnID
	for i := range s.owners {
		o := &s.owners[i]
		o.mu.Lock()
		for txn, owner := range o.m {
			if owner == sess {
				owned = append(owned, txn)
			}
		}
		o.mu.Unlock()
	}
	forced := int64(0)
	for _, txn := range owned {
		// Nobody else releases a transaction recorded on this session,
		// so what it holds now is what the release below frees.
		held := s.table.HeldBy(txn) > 0
		if s.releaseOwned(sess, txn) {
			if held {
				forced++
			}
			s.journalRelease(txn)
		}
	}
	if forced > 0 {
		s.om.forceReleases.Add(forced)
	}
}

// releaseOwned releases everything txn holds unless the transaction is
// recorded as granted on a session other than sess, and reports whether
// it did. It holds no lock of its own across the lock table's release,
// so the parked claims that release resolves are delivered by it at once
// — and their continuations record their owners, possibly in txn's very
// stripe.
//
// A transaction this session was granted may since have been re-granted
// on a live successor session (the client retried an acquire whose
// response a transport fault ate, and the retry won before this
// session's teardown ran). Those locks are the successor's; releasing
// them here would strip a live session's grants and break mutual
// exclusion. The check under the stripe is enough: a conservative claim
// for a transaction that still holds locks is refused (ErrAlreadyHolds),
// so no successor is granted txn between the check and the release. The
// owner is forgotten after the release, and only if it is still sess (a
// successor may have been granted and recorded meanwhile), so that a
// transaction with no owner recorded and locks held is always a grant
// not yet recorded — what awaitOwner takes it for.
//
//granulint:hotpath
func (s *Server) releaseOwned(sess *session, txn lockmgr.TxnID) bool {
	owner, recorded := s.ownerOf(txn)
	if recorded && owner != sess {
		return false
	}
	s.table.ReleaseAll(txn)
	if recorded {
		o := s.ownerStripe(txn)
		o.mu.Lock()
		if o.m[txn] == sess {
			delete(o.m, txn)
		}
		o.mu.Unlock()
	}
	return true
}

// Draining reports whether Close has begun — the server still finishes
// in-flight requests but accepts no new connections. Health endpoints
// use it to flip a readiness probe before the listener disappears.
func (s *Server) Draining() bool { return s.draining() }

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// errOwnerLive is awaitOwner's verdict that a transaction's locks stay
// with another session that is not going away.
var errOwnerLive = errors.New("locksrv: transaction granted on a live session")

// awaitOwner is the one owner-race wait of acquire, release and lease,
// which answer its verdict each with a status of its own: it waits out
// the teardown of a predecessor session txn may still be recorded on,
// polling every millisecond. It returns nil once the owner record is
// gone and the table holds nothing for txn, or the record is sess's;
// errOwnerLive once the locks have stayed ownerRaceWait since start
// with an owner not condemned (a live session, or a grant not yet
// recorded); ctx's error when ctx ends. Never called on a reader.
func (s *Server) awaitOwner(ctx context.Context, sess *session, txn lockmgr.TxnID, start time.Time) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		owner, _ := s.ownerOf(txn)
		switch {
		case owner == sess, owner == nil && s.table.HeldBy(txn) == 0:
			return nil
		case (owner == nil || !owner.closing.Load()) && time.Since(start) > ownerRaceWait:
			return errOwnerLive
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// releaseCore completes, on a goroutine of its own, a release whose
// answer waits: it journals one the reader made (released), and makes
// one the reader could not, txn being recorded on another session. A
// condemned owner whose teardown has not run yet, or whose disconnect
// is not even detected, is the transport-fault retry shape — a release
// died mid-flight and was resent on a fresh session — so the release
// waits the owner out (awaitOwner) and completes idempotently; only an
// owner alive past the race bound makes it foreign: not_owner.
func (s *Server) releaseCore(sess *session, txn lockmgr.TxnID, released bool) (byte, string) {
	start := time.Now()
	for !released {
		switch err := s.awaitOwner(sess.ctx, sess, txn, start); {
		case errors.Is(err, errOwnerLive):
			s.om.foreignReleases.Inc()
			return statusNotOwner, fmt.Sprintf("transaction %d was granted on another session", txn)
		case err != nil:
			return statusClosed, "session closed"
		}
		released = s.releaseOwned(sess, txn)
	}
	s.journalRelease(txn)
	return statusOK, ""
}

// errDuplicateClaim answers a conservative claim for a transaction that
// holds locks on this session, or on a live peer: misuse, never a retry.
var errDuplicateClaim = fmt.Errorf("%w: transaction already holds locks; conservative claims must be the first acquisition", ErrBadRequest)

// sideline takes acquire a off the path onto a goroutine of its own,
// with a copy of its requests, for a wait that is not the lock table's:
// the seal of the recovery window it routed into (sealed), or — sealed
// nil — the teardown of a predecessor session its transaction still
// holds locks for: a retried acquire whose reply a transport fault ate,
// or misuse, answered bad_request once the transaction proves to be this
// session's or a live peer's (awaitOwner). The wait counts from the
// acquire's arrival and ends at its deadline or its session's end; then
// the claim goes down the path again.
func (s *Server) sideline(a call, reqs []lockmgr.Request, sealed <-chan struct{}) {
	if a.start.IsZero() {
		a.start = time.Now()
	}
	own := slices.Clone(reqs)
	go func() {
		ctx, cancel := a.sess.ctx, context.CancelFunc(func() {})
		if a.timeoutMS > 0 {
			ctx, cancel = context.WithDeadline(ctx, a.start.Add(time.Duration(a.timeoutMS)*time.Millisecond))
		}
		defer cancel()
		var err error
		if sealed != nil {
			select {
			case <-sealed:
			case <-ctx.Done():
				err = ctx.Err()
			}
		} else {
			err = s.awaitOwner(ctx, a.sess, a.txn, a.start)
			// Misuse, not a retry: the transaction is this session's, or a live peer's.
			if owner, _ := s.ownerOf(a.txn); errors.Is(err, errOwnerLive) || err == nil && owner == a.sess {
				err = errDuplicateClaim
			}
		}
		if err != nil {
			s.finish(a, own, err)
			return
		}
		s.acquire(a, own)
	}()
}

// recordWait samples the wait of an acquire that arrived at start. A
// zero start is a claim the table decided at once: it waited no time,
// and the sample is recorded without reading the clock — at service
// rates the two time syscalls per acquire are a measurable tax.
//
//granulint:hotpath
func (s *Server) recordWait(start time.Time) {
	waitMS := 0.0
	if !start.IsZero() {
		waitMS = float64(time.Since(start)) / float64(time.Millisecond)
	}
	s.om.waitMS.Observe(waitMS)
}

// serverStats snapshots the service-level gauges and counters.
func (s *Server) serverStats() ServerStats {
	s.mu.Lock()
	sessions := int64(len(s.sessions))
	s.mu.Unlock()
	var cs *ClusterStats
	if s.cluster != nil {
		snap := s.ClusterStats()
		cs = &snap
	}
	return ServerStats{
		Sessions:        sessions,
		SessionsTotal:   s.om.sessionsTotal.Value(),
		Holders:         int64(s.table.HoldersCount()),
		LockedGranules:  int64(s.table.LockedGranules()),
		Waiters:         int64(s.table.WaitersCount()),
		Grants:          s.om.grants.Value(),
		Timeouts:        s.om.timeouts.Value(),
		Cancels:         s.om.cancels.Value(),
		ForceReleases:   s.om.forceReleases.Value(),
		ForeignReleases: s.om.foreignReleases.Value(),
		IdleReaps:       s.om.idleReaps.Value(),
		WaitP50MS:       s.om.waitMS.Quantile(0.50),
		WaitP90MS:       s.om.waitMS.Quantile(0.90),
		WaitP99MS:       s.om.waitMS.Quantile(0.99),
		WaitSamples:     s.om.waitMS.Count(),
		Cluster:         cs,
	}
}

// Stats returns the service-level stats snapshot (the same data the
// wire "stats" op reports in Response.Server), for embedding processes
// such as lockd's periodic logger.
func (s *Server) Stats() ServerStats { return s.serverStats() }
