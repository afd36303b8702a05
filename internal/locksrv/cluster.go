package locksrv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/ring"
)

// Cluster mode partitions the granule namespace across N lock servers
// with a static consistent-hash ring (internal/ring). Each node serves
// only its own partition: an acquire or lease for a granule owned by
// another node is answered with a redirect carrying the owner's ring
// index and address, and the cluster-aware client re-routes. Releases
// need no routing — they are transaction-scoped, and a release of an
// unknown transaction is an idempotent no-op, so the client simply
// sends them where it acquired.
//
// Failover is lease-based. Every node heartbeats its ring predecessor
// (the node it is standby for); after HeartbeatMisses consecutive
// failed probes it takes the dead node's partition over. A takeover
// opens a recovery window of RecoveryGrace during which the standby
// serves the partition in a restricted mode: lease re-asserts from
// clients (each asserting the exact grants it believes it holds on
// the dead node) are accepted and reconstruct holder state — first
// assert wins — while fresh acquires for the partition park until the
// window seals. When the window seals, unreasserted grants simply do
// not exist on the standby (the authoritative force-release: the dead
// node's table died with it, and nothing re-created the grants), late
// re-asserts fail with lease_expired, and parked acquires proceed
// against the reconstructed table. A refresh from the session that
// holds a transaction is not a re-assert: it succeeds before and after
// the seal.
//
// The scheme tolerates one node failure at a time: a partition fails
// over to its ring successor, and a concurrent failure of the
// successor is out of scope for the static ring (the paper's
// experiments need a failure mode, not a consensus protocol).

// ClusterConfig is the static cluster topology, identical on every
// node (and mirrored by DialCluster clients): the ordered node
// addresses, which entry is this process, and the failover timing.
type ClusterConfig struct {
	// Nodes lists every node's dial address in ring order. All nodes
	// and clients must use the same order.
	Nodes []string
	// Self is this node's index in Nodes.
	Self int
	// HeartbeatEvery is the predecessor probe period. Zero disables
	// failure detection: the node serves its partition and honors
	// explicit BeginTakeover calls, but never initiates one.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many consecutive probe failures condemn
	// the predecessor. Zero means 3.
	HeartbeatMisses int
	// RecoveryGrace is the lease re-assert window a takeover opens
	// before sealing the partition. Zero means 500ms.
	RecoveryGrace time.Duration
	// Dial opens heartbeat connections; nil means TCP with a 1s
	// connect timeout.
	Dial func(addr string) (net.Conn, error)
}

// clusterState is a Server's runtime cluster machinery.
type clusterState struct {
	cfg  ClusterConfig
	ring *ring.Ring

	mu        sync.Mutex
	takeovers map[int]*takeover

	monitorOnce sync.Once
	hbStop      chan struct{}
	hbWG        sync.WaitGroup
}

// takeover is one adopted partition: the recovery window and its seal.
type takeover struct {
	sealed chan struct{} // closed when the recovery window ends
}

// WithCluster puts the server in cluster mode. Without this option the
// server serves the whole granule namespace exactly as before. The
// config must be internally consistent (Self in range); a broken
// topology is a deployment bug, reported by panic at construction.
func WithCluster(cfg ClusterConfig) ServerOption {
	return func(s *Server) {
		if len(cfg.Nodes) == 0 {
			panic("locksrv: cluster config has no nodes")
		}
		if cfg.Self < 0 || cfg.Self >= len(cfg.Nodes) {
			panic("locksrv: cluster Self index out of range")
		}
		if cfg.HeartbeatMisses <= 0 {
			cfg.HeartbeatMisses = 3
		}
		if cfg.RecoveryGrace <= 0 {
			cfg.RecoveryGrace = 500 * time.Millisecond
		}
		if cfg.Dial == nil {
			cfg.Dial = func(addr string) (net.Conn, error) {
				return net.DialTimeout("tcp", addr, time.Second)
			}
		}
		s.cluster = &clusterState{
			cfg:       cfg,
			ring:      ring.New(len(cfg.Nodes)),
			takeovers: make(map[int]*takeover),
			hbStop:    make(chan struct{}),
		}
	}
}

// ClusterStats is the snapshot of a node's cluster counters, exposed
// both here and in the wire stats (ServerStats).
type ClusterStats struct {
	Takeovers      int64 `json:"takeovers"`       // partitions adopted from dead nodes
	Reasserts      int64 `json:"reasserts"`       // transactions reconstructed from lease re-asserts
	LeaseExpired   int64 `json:"lease_expired"`   // re-asserts refused (sealed window or conflict)
	Redirects      int64 `json:"redirects"`       // requests redirected to their owning node
	ParkedAcquires int64 `json:"parked_acquires"` // acquires parked behind a recovery window
}

// ClusterStats returns the node's cluster counters; zero-valued when
// the server is not clustered.
func (s *Server) ClusterStats() ClusterStats {
	return ClusterStats{
		Takeovers:      s.om.clusterTakeovers.Value(),
		Reasserts:      s.om.clusterReasserts.Value(),
		LeaseExpired:   s.om.clusterLeaseExpired.Value(),
		Redirects:      s.om.clusterRedirects.Value(),
		ParkedAcquires: s.om.clusterParked.Value(),
	}
}

// takeoverOf returns the takeover of node's partition, or nil.
func (cl *clusterState) takeoverOf(node int) *takeover {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.takeovers[node]
}

// recoveringCount counts takeovers whose window has not sealed yet.
func (cl *clusterState) recoveringCount() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, t := range cl.takeovers {
		select {
		case <-t.sealed:
		default:
			n++
		}
	}
	return n
}

// route checks that this node serves every granule of reqs. A granule
// another node owns and has not handed over is answered with a redirect.
// A lease re-assert (reassert: the reconstruction) is answered with
// lease_expired unless every granule lies in an adopted partition whose
// recovery window is open: a grant in this node's own partition, or on
// a server that is not clustered, was this node's to keep, and one in a
// sealed window died with the dead node. Otherwise route returns
// statusOK and, for a fresh acquire of a granule behind a takeover's
// recovery window that is still open, the window's seal to wait for. A
// nil cluster serves every fresh acquire.
func (s *Server) route(reqs []lockmgr.Request, reassert bool) (sealed chan struct{}, st byte, msg string) {
	cl := s.cluster
	if cl == nil {
		if reassert {
			return nil, statusLeaseExpired, s.expireLease("no partition of an unclustered server is adopted")
		}
		return nil, statusOK, ""
	}
	for _, r := range reqs {
		owner := cl.ring.Owner(uint64(r.Granule))
		if owner == cl.cfg.Self {
			if reassert {
				return nil, statusLeaseExpired, s.expireLease(fmt.Sprintf("granule %d lies in this node's own partition", r.Granule))
			}
			continue
		}
		t := cl.takeoverOf(owner)
		if t == nil {
			s.om.clusterRedirects.Inc()
			return nil, statusRedirect, redirectDetail(owner, cl.cfg.Nodes[owner])
		}
		select {
		case <-t.sealed:
			if reassert {
				return nil, statusLeaseExpired, s.expireLease(fmt.Sprintf("granule %d: node %d's recovery window has sealed", r.Granule, owner))
			}
		default:
			if !reassert {
				sealed = t.sealed
			}
		}
	}
	return sealed, statusOK, ""
}

// BeginTakeover adopts node's partition: it opens the recovery window
// and, when the window seals, serves the partition normally. The
// caller is expected to be node's ring successor — the standby the
// cluster client fails over to. Returns false when the server is not
// clustered, node is this node, or the partition was already adopted.
// The heartbeat monitor calls this on probe failure; tests and
// operators may call it directly for a deterministic failover.
func (s *Server) BeginTakeover(node int) bool {
	cl := s.cluster
	if cl == nil || node == cl.cfg.Self || node < 0 || node >= len(cl.cfg.Nodes) {
		return false
	}
	cl.mu.Lock()
	if _, ok := cl.takeovers[node]; ok {
		cl.mu.Unlock()
		return false
	}
	t := &takeover{sealed: make(chan struct{})}
	cl.takeovers[node] = t
	cl.mu.Unlock()
	s.om.clusterTakeovers.Inc()
	cl.hbWG.Add(1)
	go func() {
		defer cl.hbWG.Done()
		timer := time.NewTimer(cl.cfg.RecoveryGrace)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-cl.hbStop:
			// Server closing: seal now so parked acquires unblock and
			// fail through the normal drain path.
		}
		close(t.sealed)
	}()
	return true
}

// startMonitor launches the predecessor heartbeat loop (idempotent;
// no-op for single-node rings or when HeartbeatEvery is zero).
func (cl *clusterState) startMonitor(s *Server) {
	cl.monitorOnce.Do(func() {
		n := len(cl.cfg.Nodes)
		if n < 2 || cl.cfg.HeartbeatEvery <= 0 {
			return
		}
		cl.hbWG.Add(1)
		go s.clusterMonitor()
	})
}

// stopMonitor ends the heartbeat loop and any takeover timers.
func (cl *clusterState) stopMonitor() {
	cl.mu.Lock()
	select {
	case <-cl.hbStop:
	default:
		close(cl.hbStop)
	}
	cl.mu.Unlock()
	cl.hbWG.Wait()
}

// clusterMonitor probes the ring predecessor every HeartbeatEvery and
// adopts its partition after HeartbeatMisses consecutive failures. One
// monitor per node suffices: each node is standby for exactly its
// predecessor, so the ring as a whole watches every node. The monitor
// exits once the takeover begins — under the single-failure model the
// predecessor does not come back without a full cluster restart.
func (s *Server) clusterMonitor() {
	cl := s.cluster
	defer cl.hbWG.Done()
	n := len(cl.cfg.Nodes)
	pred := (cl.cfg.Self - 1 + n) % n
	addr := cl.cfg.Nodes[pred]
	probeTimeout := 4 * cl.cfg.HeartbeatEvery
	if probeTimeout < 100*time.Millisecond {
		probeTimeout = 100 * time.Millisecond
	}
	var hb *ClientV2
	defer func() {
		if hb != nil {
			hb.Close()
		}
	}()
	tick := time.NewTicker(cl.cfg.HeartbeatEvery)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-cl.hbStop:
			return
		case <-tick.C:
		}
		if probeV2(&hb, addr, cl.cfg.Dial, probeTimeout) == nil {
			misses = 0
			continue
		}
		misses++
		if misses >= cl.cfg.HeartbeatMisses {
			s.BeginTakeover(pred)
			return
		}
	}
}

// probeV2 performs one liveness probe: a stats round trip on a cached
// v2 connection (re-dialed on demand), bounded by timeout. Any
// failure — dial refused, transport error, or a node so wedged the
// round trip cannot complete in time — counts as a miss, and the
// cached connection is discarded so the next probe starts fresh.
func probeV2(hbp **ClientV2, addr string, dial func(string) (net.Conn, error), timeout time.Duration) error {
	hb := *hbp
	if hb == nil {
		var err error
		hb, err = DialV2(addr, WithRetries(0), WithDialer(dial))
		if err != nil {
			return err
		}
		*hbp = hb
	}
	done := make(chan error, 1)
	go func() {
		_, err := hb.Stats()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			hb.Close()
			*hbp = nil
		}
		return err
	case <-time.After(timeout):
		// Close unblocks the stats call; the buffered channel lets the
		// goroutine exit regardless.
		hb.Close()
		*hbp = nil
		return fmt.Errorf("locksrv: heartbeat probe: %w", context.DeadlineExceeded)
	}
}

// lease decides one transaction of a lease assert and answers it — on a
// goroutine of its own when it waits on a predecessor session's teardown
// (leaseCore).
func (s *Server) lease(c call, reqs []lockmgr.Request) {
	if st, msg, decided := s.leaseNow(c.sess, c.txn, reqs); decided {
		s.answer(c, st, msg)
		return
	}
	go func() {
		st, msg := s.leaseCore(c.sess, c.txn, reqs)
		s.answer(c, st, msg)
	}()
}

// leaseNow decides one transaction of a lease assert without waiting: a
// refresh when this session already owns the transaction and it holds
// every asserted grant in at least the asserted mode; a reconstruction
// when the transaction is unknown, every asserted granule lies in an
// adopted partition whose recovery window is open (route) and the
// grants are free (the failover path — first assert wins); lease_expired
// otherwise. The owner is checked before the route, so a grant made on
// this session after the seal still refreshes. It decides nothing
// (false) while the transaction is recorded on another session or held
// with no owner recorded (a grant not yet recorded: journal pending),
// which leaseCore waits out: a lease retried across a reconnect must not
// lose to its own dying session.
func (s *Server) leaseNow(sess *session, txn lockmgr.TxnID, reqs []lockmgr.Request) (byte, string, bool) {
	if len(reqs) == 0 {
		return statusBadRequest, "lease without granules", true
	}
	owner, owned := s.ownerOf(txn)
	if owned && owner == sess {
		for _, r := range reqs {
			if !s.table.HoldsAtLeast(txn, r.Granule, r.Mode) {
				return statusLeaseExpired, s.expireLease(fmt.Sprintf("transaction %d does not hold granule %d in mode %v", txn, r.Granule, r.Mode)), true
			}
		}
		return statusOK, "", true // refresh: the grants live on this session
	}
	if !owned && s.table.HeldBy(txn) > 0 {
		return 0, "", false
	}
	if _, st, msg := s.route(reqs, true); st != statusOK {
		return st, msg, true
	}
	if owned {
		return 0, "", false
	}
	granted, err := s.table.TryAcquireAll(txn, reqs)
	switch {
	case granted:
		s.setOwner(txn, sess)
		s.om.clusterReasserts.Inc()
		return statusOK, "", true
	case err == nil:
		// The asserted granules are held by someone else: a conflicting
		// claim won the reconstruction race, or the window sealed and
		// fresh acquires took the granules.
		return statusLeaseExpired, s.expireLease(fmt.Sprintf("transaction %d: asserted grants conflict with current holders", txn)), true
	}
	return 0, "", false // ErrAlreadyHolds: granted, not yet recorded, since the check above
}

// expireLease counts a lease item refused with lease_expired and
// returns the refusal's detail, msg.
func (s *Server) expireLease(msg string) string {
	s.om.clusterLeaseExpired.Inc()
	return msg
}

// leaseCore decides a lease item leaseNow could not, on a goroutine of
// its own: it waits the other owner out (awaitOwner) and decides again.
// Locks that stay with another live session past the race bound are
// lost to this lease: lease_expired.
func (s *Server) leaseCore(sess *session, txn lockmgr.TxnID, reqs []lockmgr.Request) (byte, string) {
	start := time.Now()
	for {
		switch err := s.awaitOwner(sess.ctx, sess, txn, start); {
		case errors.Is(err, errOwnerLive):
			return statusLeaseExpired, s.expireLease(fmt.Sprintf("transaction %d is granted on another live session", txn))
		case err != nil:
			return statusClosed, "session closed"
		}
		if st, msg, decided := s.leaseNow(sess, txn, reqs); decided {
			return st, msg
		}
	}
}
