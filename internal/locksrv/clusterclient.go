package locksrv

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/ring"
)

// maxRedirectHops bounds how many redirects one logical request will
// follow. Two hops resolve any single ring-view disagreement; the
// margin covers a client with a badly stale view, and the bound turns
// a redirect cycle (two nodes disclaiming the same granule — a broken
// deployment) into an error instead of a livelock.
const maxRedirectHops = 8

// ClusterClient routes lock requests across a partitioned lockd
// cluster. It mirrors the cluster's static ring from the same ordered
// address list (see WithCluster) and keeps one pipelined ClientV2 per
// node, dialed lazily; requests go to the granule's owner, redirects
// from nodes with a different ring view are followed transparently,
// and a claim spanning partitions is split per node and acquired in
// ascending node order (all-or-nothing: a failed group rolls the
// earlier groups back).
//
// Failover: the client tracks every grant per node. When a node stops
// answering, the client marks it down, re-asserts the affected
// transactions' grants to the node's ring successor with the Lease op
// — racing the standby's recovery window — and routes the partition
// to the successor from then on. A transaction whose re-assert loses
// the race (lease_expired) has lost its locks; its next ReleaseAll
// completes as an idempotent no-op and LostLeases counts the event. A
// background lease loop (WithLeaseInterval) re-asserts all holdings
// periodically so failures are detected and survived even while the
// application is idle.
//
// Methods are safe for concurrent use; many workers can share one
// ClusterClient the way they share a ClientV2.
type ClusterClient struct {
	opts    []ClientOption
	cfg     clientCfg // resolved knobs (lease interval, failover wait)
	ring    *ring.Ring
	addrs   []string       // ring order
	addrIdx map[string]int // inverse of addrs
	leaseID uint64

	mu      sync.Mutex
	nodes   map[string]*clusterNode // by address; includes redirect targets
	down    []bool                  // by ring index
	failing []chan struct{}         // by ring index; closed when its failover ends
	holds   map[int64]map[string][]lockmgr.Request
	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	redirects atomic.Int64
	failovers atomic.Int64
	lost      atomic.Int64
}

// clusterNode is one per-address connection slot; its mutex
// single-flights the lazy dial.
type clusterNode struct {
	addr string
	mu   sync.Mutex
	c    *ClientV2
}

// WithLeaseInterval sets how often the cluster client re-asserts all
// holdings to their serving nodes (the failover heartbeat). Zero
// disables the background loop — failover then triggers only when a
// request hits the dead node. Default 1s. Ignored by Dial/DialV2.
func WithLeaseInterval(d time.Duration) ClientOption {
	return func(c *clientCfg) { c.leaseEvery = d }
}

// WithFailoverTimeout bounds how long the cluster client keeps
// retrying against a partition in failover (waiting out the standby's
// takeover and recovery window) before giving up with the underlying
// error. Default 10s. Ignored by Dial/DialV2.
func WithFailoverTimeout(d time.Duration) ClientOption {
	return func(c *clientCfg) { c.failoverWait = d }
}

// DialCluster opens a cluster-aware client over the given node
// addresses, which must be the cluster's ClusterConfig.Nodes in the
// same order. Node connections are dialed lazily, so DialCluster
// itself touches no network. Options apply to every per-node
// connection (retries, backoff, dialer) plus the cluster-level knobs
// (WithLeaseInterval, WithFailoverTimeout).
//
// A client whose ring view disagrees with the servers' (wrong node
// list or vnode count) still lands single-partition claims by
// following redirects, but a claim the stale view wrongly groups
// across partitions cannot be fixed by redirects — each node bounces
// it at the other — and fails after maxRedirectHops. Multi-granule
// claims therefore require an agreed ring.
func DialCluster(addrs []string, opts ...ClientOption) (*ClusterClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: cluster client needs at least one node address", ErrBadRequest)
	}
	cfg := defaultClientCfg("")
	cfg.leaseEvery = time.Second
	cfg.failoverWait = 10 * time.Second
	for _, o := range opts {
		o(&cfg)
	}
	cc := &ClusterClient{
		opts:    opts,
		cfg:     cfg,
		ring:    ring.New(len(addrs)),
		addrs:   append([]string(nil), addrs...),
		addrIdx: make(map[string]int, len(addrs)),
		nodes:   make(map[string]*clusterNode, len(addrs)),
		down:    make([]bool, len(addrs)),
		failing: make([]chan struct{}, len(addrs)),
		holds:   make(map[int64]map[string][]lockmgr.Request),
		closeCh: make(chan struct{}),
		leaseID: newLeaseID(),
	}
	for i, a := range addrs {
		cc.addrIdx[a] = i
	}
	if cfg.leaseEvery > 0 {
		cc.wg.Add(1)
		go cc.leaseLoop()
	}
	return cc, nil
}

// newLeaseID draws a cluster client's lease id from the process's
// entropy, not from the jitter stream: that stream is seeded (1 unless
// WithJitterSeed), so every client would carry the same id.
func newLeaseID() uint64 {
	var b [8]byte
	// Read fails only without an entropy source; the id is carried for
	// observability, so a zero id costs nothing else.
	_, _ = rand.Read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// clientFor returns (dialing if needed) the connection to addr.
func (cc *ClusterClient) clientFor(addr string) (*ClientV2, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, ErrClientClosed
	}
	n, ok := cc.nodes[addr]
	if !ok {
		n = &clusterNode{addr: addr}
		cc.nodes[addr] = n
	}
	cc.mu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.c != nil {
		return n.c, nil
	}
	c, err := DialV2(addr, cc.opts...)
	if err != nil {
		return nil, err
	}
	n.c = c
	return c, nil
}

// dropClient discards addr's connection after a node failure so the
// next use re-dials instead of burning retries on a dead socket.
func (cc *ClusterClient) dropClient(addr string) {
	cc.mu.Lock()
	n := cc.nodes[addr]
	cc.mu.Unlock()
	if n == nil {
		return
	}
	n.mu.Lock()
	c := n.c
	n.c = nil
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// pause sleeps for d or until the client closes.
func (cc *ClusterClient) pause(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-cc.closeCh:
	}
}

// isProtocolErr reports whether err is a lock-protocol outcome that
// must surface to the caller rather than trigger failover: the node
// answered, it just said no. That includes ErrUnavailable — the node is
// alive and withdrew the claim because its grant journal failed, so the
// caller may retry, but marking the node down would start a takeover
// nobody needs. ErrClientClosed is deliberately NOT in
// this set — from a per-node client it means dropClient tore the
// session down mid-call during a failover, which is a transport
// condition; the cluster client's own closure is checked separately
// via closeCh.
func isProtocolErr(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrNotOwner) ||
		errors.Is(err, ErrBadRequest) || errors.Is(err, ErrUnknownOp) ||
		errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnavailable)
}

// AcquireAll conservatively claims the lock set for txn across the
// cluster, blocking until granted.
func (cc *ClusterClient) AcquireAll(txn int64, reqs []lockmgr.Request) error {
	return cc.AcquireAllTimeout(txn, reqs, 0)
}

// AcquireAllTimeout claims the lock set for txn with a per-partition
// wait deadline. The claim is split by serving node and acquired in
// ascending node order; if any group fails, groups already granted are
// released and the first error returns — all-or-nothing, like the
// single-node client. A claim spanning k partitions may wait up to
// k×timeout in the worst case, since each partition gets the full
// deadline.
func (cc *ClusterClient) AcquireAllTimeout(txn int64, reqs []lockmgr.Request, timeout time.Duration) error {
	if len(reqs) == 0 {
		return fmt.Errorf("%w: acquire without granules", ErrBadRequest)
	}
	// Partition by serving node index (stable acquisition order), not
	// by address, so every client orders the same way.
	groups := make(map[int][]lockmgr.Request)
	for _, r := range reqs {
		owner := cc.ring.Owner(uint64(r.Granule))
		groups[owner] = append(groups[owner], r)
	}
	order := make([]int, 0, len(groups))
	for idx := range groups {
		order = append(order, idx)
	}
	sort.Ints(order)
	acquired := make([]string, 0, len(order))
	for _, idx := range order {
		addr, err := cc.acquireGroup(idx, txn, groups[idx], timeout)
		if err != nil {
			// Roll the earlier groups back so the transaction holds
			// nothing, preserving the all-or-nothing contract. Forget
			// before releasing so a concurrent lease refresh cannot
			// resurrect the groups being rolled back.
			cc.forget(txn)
			for _, a := range acquired {
				cc.releaseAt(a, txn)
			}
			return err
		}
		acquired = append(acquired, addr)
	}
	return nil
}

// acquireGroup lands one partition's sub-claim on whichever node
// currently serves it and records it there. It returns the address that
// granted the group.
func (cc *ClusterClient) acquireGroup(idx int, txn int64, reqs []lockmgr.Request, timeout time.Duration) (string, error) {
	target := cc.addrs[idx]
	if cc.isDown(idx) {
		target = cc.addrs[cc.ring.Successor(idx)]
	}
	// pending carries earlier groups of this claim that were released
	// for a merged re-claim (see below); they ride along until the
	// claim lands so the overall acquire stays all-or-nothing.
	var pending []lockmgr.Request
	return cc.request(target, func(c *ClientV2, target string) error {
		if prior := cc.dropHold(txn, target); len(prior) > 0 {
			// An earlier group of this same claim already landed on
			// target: a failover (or redirect) collapsed two partitions
			// onto one node. The server takes exactly one conservative
			// claim per transaction, so release the earlier group and
			// re-claim the union atomically. The earlier grants are not
			// app-visible yet (the overall acquire has not returned), so
			// briefly holding nothing is safe; they are forgotten before
			// the release goes out, like every other release.
			_ = c.ReleaseAll(txn)
			pending = append(pending, prior...)
		}
		send := reqs
		if len(pending) > 0 {
			send = append(append([]lockmgr.Request(nil), pending...), reqs...)
		}
		err := c.AcquireAllTimeout(txn, send, timeout)
		if err == nil {
			cc.record(txn, target, send)
		}
		return err
	})
}

// request runs one request, starting at target, until a node answers
// it: do sends it on the connection to the node it names. request
// follows redirects (probing a node marked down that the cluster still
// routes to), fails a ring node that does not answer over to its ring
// successor, and returns the answer — nil or a lock-protocol error —
// with the address that gave it.
func (cc *ClusterClient) request(target string, do func(c *ClientV2, target string) error) (string, error) {
	deadline := time.Now().Add(cc.cfg.failoverWait)
	hops := 0
	for {
		select {
		case <-cc.closeCh:
			return "", ErrClientClosed
		default:
		}
		c, err := cc.clientFor(target)
		if errors.Is(err, ErrClientClosed) {
			return "", err
		}
		if err == nil {
			err = do(c, target)
			var re *RedirectError
			switch {
			case errors.As(err, &re):
				cc.redirects.Add(1)
				if hops++; hops > maxRedirectHops {
					return "", fmt.Errorf("locksrv: redirect cycle after %d hops: %w", hops, ErrRedirect)
				}
				if j, ok := cc.addrIdx[re.Addr]; ok && !cc.probeUp(j) {
					// Redirected toward a node we marked down, and it did
					// not answer the probe (one that answers was a false
					// positive, cleared, and is followed): the standby
					// has not adopted the partition yet, so wait for the
					// takeover in place.
					if time.Now().After(deadline) {
						return "", fmt.Errorf("locksrv: failover did not complete: %w", err)
					}
					cc.pause(5 * time.Millisecond)
					hops-- // waiting in place is not a hop
					continue
				}
				target = re.Addr
				continue
			case err == nil || isProtocolErr(err):
				return target, err
			}
		}
		// Transport-level failure: the target is dead or unreachable.
		// For ring nodes, fail over to the successor; for ad-hoc
		// redirect targets there is no configured standby to try.
		j, ok := cc.addrIdx[target]
		if !ok {
			return "", err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("locksrv: failover did not complete: %w", err)
		}
		cc.nodeFailed(j)
		target = cc.addrs[cc.ring.Successor(j)]
	}
}

func (cc *ClusterClient) isDown(idx int) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.down[idx]
}

// probeUp re-checks a node marked down after the cluster redirected us
// back to it, which means the servers still consider it the live
// owner — our marking may have been a transport false positive. A
// successful dial (plus stats round-trip) clears the marking so the
// client recovers instead of waiting forever for a takeover that will
// never happen. Returns whether the node is in service: true at once
// for a node not marked down.
func (cc *ClusterClient) probeUp(idx int) bool {
	cc.mu.Lock()
	f := cc.failing[idx]
	down := cc.down[idx]
	cc.mu.Unlock()
	if !down {
		return true
	}
	if f != nil {
		select {
		case <-f:
			// Failover finished; safe to re-evaluate the node.
		default:
			return false // failover still running; don't fight it
		}
	}
	c, err := cc.clientFor(cc.addrs[idx])
	if err != nil {
		return false
	}
	if _, err := c.Stats(); err != nil {
		return false
	}
	cc.mu.Lock()
	cc.down[idx] = false
	cc.failing[idx] = nil
	cc.mu.Unlock()
	return true
}

// record merges a granted group into the transaction's holdings.
func (cc *ClusterClient) record(txn int64, addr string, reqs []lockmgr.Request) {
	cc.mu.Lock()
	m := cc.holds[txn]
	if m == nil {
		m = make(map[string][]lockmgr.Request)
		cc.holds[txn] = m
	}
	m[addr] = append(m[addr], reqs...)
	cc.mu.Unlock()
}

// forget drops a transaction's holdings record.
func (cc *ClusterClient) forget(txn int64) {
	cc.mu.Lock()
	delete(cc.holds, txn)
	cc.mu.Unlock()
}

// ReleaseAll releases everything txn holds across the cluster. A
// transaction whose grants were lost in a failover (lease expired)
// releases as an idempotent no-op, matching the single-node contract
// for unknown transactions.
//
// The holdings record is dropped before any network call: once the
// release is in motion, a concurrent lease refresh or failover
// re-assert must see the transaction as gone, so it compensates
// (releases the grant it just reconstructed) instead of resurrecting
// a released transaction on the server — which nothing would ever
// release again. If a release then fails terminally, the grants die
// with the node session instead.
func (cc *ClusterClient) ReleaseAll(txn int64) error {
	cc.mu.Lock()
	m := cc.holds[txn]
	delete(cc.holds, txn)
	addrs := make([]string, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	cc.mu.Unlock()
	sort.Strings(addrs)
	var firstErr error
	for _, a := range addrs {
		if err := cc.releaseAt(a, txn); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// releaseAt releases txn on one node, riding out a failover the same
// way acquire does (a release on the successor of a dead node is a
// no-op when the txn was not reasserted, which is the correct
// outcome: the grants died with the node). The release always starts
// at the recorded address even when that node is marked down: the
// record is where the grant lives (reassert move-corrects it), and a
// down marking can be a false positive — rerouting a release away
// from a live holder would no-op and strand the grant.
func (cc *ClusterClient) releaseAt(addr string, txn int64) error {
	_, err := cc.request(addr, func(c *ClientV2, _ string) error { return c.ReleaseAll(txn) })
	return err
}

// nodeFailed marks ring node idx down (idempotent) and re-asserts the
// transactions it was serving to its successor. Concurrent callers
// single-flight: the first runs the failover, the rest wait for it.
func (cc *ClusterClient) nodeFailed(idx int) {
	cc.mu.Lock()
	if cc.down[idx] {
		f := cc.failing[idx]
		cc.mu.Unlock()
		if f != nil {
			<-f
		}
		return
	}
	cc.down[idx] = true
	f := make(chan struct{})
	cc.failing[idx] = f
	addr := cc.addrs[idx]
	moved := make(map[int64][]lockmgr.Request)
	for txn, m := range cc.holds {
		if reqs, ok := m[addr]; ok {
			moved[txn] = reqs
		}
	}
	cc.mu.Unlock()
	cc.failovers.Add(1)
	defer close(f)
	cc.dropClient(addr)
	cc.reassert(idx, moved)
}

// reassert pushes the dead node's grants to its successor with Lease,
// retrying until the standby's recovery window accepts them or the
// failover budget runs out. Transactions the window refuses
// (lease_expired) or that never land in budget are lost: their
// holdings entry for the dead node is dropped and LostLeases counts
// them.
func (cc *ClusterClient) reassert(idx int, moved map[int64][]lockmgr.Request) {
	deadline := time.Now().Add(cc.cfg.failoverWait)
	deadAddr := cc.addrs[idx]
	items := make([]LeaseTxn, 0, len(moved))
	for txn, reqs := range moved {
		items = append(items, LeaseTxn{Txn: txn, Reqs: reqs})
	}
	// Deterministic assert order keeps retries stable.
	sort.Slice(items, func(i, j int) bool { return items[i].Txn < items[j].Txn })
	for len(items) > 0 && !time.Now().After(deadline) {
		select {
		case <-cc.closeCh:
			return
		default:
		}
		// A redirect means the successor has not adopted the partition
		// yet, a transport error that it is not reachable yet: either
		// way, keep asserting until its takeover opens.
		retry, err := cc.assert(deadAddr, cc.addrs[cc.ring.Successor(idx)], items)
		if errors.Is(err, ErrClientClosed) {
			return
		}
		if items = retry; len(items) > 0 {
			cc.pause(5 * time.Millisecond)
		}
	}
	for _, it := range items {
		cc.dropHold(it.Txn, deadAddr)
		cc.lost.Add(1)
	}
}

// assert sends one lease batch to the node at to for holdings recorded
// at from, and settles each outcome. A grant moves the holdings to the
// node that answered (a refresh when from == to), or is undone if the
// transaction was released meanwhile; a refusal (lease_expired)
// drops the holdings and counts a lost lease; a redirect is returned
// for a retry. Items released since the caller's snapshot are not sent:
// nothing would ever release them again. A transport error settles
// nothing and returns the items still to send.
func (cc *ClusterClient) assert(from, to string, items []LeaseTxn) (retry []LeaseTxn, err error) {
	live := items[:0]
	for _, it := range items {
		if cc.holdsAt(it.Txn, from) {
			live = append(live, it)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	c, err := cc.clientFor(to)
	if err != nil {
		return live, err
	}
	outs, err := c.Lease(cc.leaseID, live)
	if err != nil {
		return live, err
	}
	retry = live[:0]
	for i, out := range outs {
		switch txn := live[i].Txn; {
		case out == nil:
			if !cc.moveHold(txn, from, to) {
				// Released mid-flight: the node just granted a
				// transaction nobody holds anymore. Undo directly (no
				// failover riding — the node answered the lease a moment
				// ago); the session teardown is the backstop if this
				// races another failure.
				_ = c.ReleaseAll(txn)
			}
		case errors.Is(out, ErrRedirect):
			retry = append(retry, live[i])
		default:
			// lease_expired (or another terminal refusal): the
			// transaction's grants are gone.
			cc.dropHold(txn, from)
			cc.lost.Add(1)
		}
	}
	return retry, nil
}

// moveHold reparents a transaction's holdings from one node to another
// that accepted its re-assert; from == to is a refresh and moves
// nothing. It reports whether the holdings were still recorded: false
// means the transaction was released while the lease was in flight and
// the caller must undo the resurrected grant.
func (cc *ClusterClient) moveHold(txn int64, from, to string) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	m := cc.holds[txn]
	reqs, ok := m[from]
	if ok && from != to {
		delete(m, from)
		m[to] = append(m[to], reqs...)
	}
	return ok
}

// holdsAt reports whether txn currently records holdings on addr.
func (cc *ClusterClient) holdsAt(txn int64, addr string) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, ok := cc.holds[txn][addr]
	return ok
}

// dropHold forgets a transaction's holdings on one node and returns
// them.
func (cc *ClusterClient) dropHold(txn int64, addr string) []lockmgr.Request {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	m := cc.holds[txn]
	reqs := m[addr]
	delete(m, addr)
	if len(m) == 0 {
		delete(cc.holds, txn)
	}
	return reqs
}

// leaseLoop periodically re-asserts every held transaction to its
// serving node: the cluster-level keepalive. A node that stops
// answering its lease triggers the same failover as a failed request,
// so dead nodes are detected while the application is idle, inside
// the standby's recovery window rather than after it. A redirected
// refresh is left alone: ownership moved, and the next acquire or
// failover chases the new owner.
func (cc *ClusterClient) leaseLoop() {
	defer cc.wg.Done()
	tick := time.NewTicker(cc.cfg.leaseEvery)
	defer tick.Stop()
	for {
		select {
		case <-cc.closeCh:
			return
		case <-tick.C:
		}
		// Snapshot holdings per serving address.
		cc.mu.Lock()
		byAddr := make(map[string][]LeaseTxn)
		for txn, m := range cc.holds {
			for addr, reqs := range m {
				byAddr[addr] = append(byAddr[addr], LeaseTxn{Txn: txn, Reqs: reqs})
			}
		}
		cc.mu.Unlock()
		for addr, items := range byAddr {
			sort.Slice(items, func(i, j int) bool { return items[i].Txn < items[j].Txn })
			_, err := cc.assert(addr, addr, items)
			if errors.Is(err, ErrClientClosed) {
				return
			}
			if j, ok := cc.addrIdx[addr]; ok && err != nil {
				// Transport failure on a ring node: run failover now.
				cc.nodeFailed(j)
			}
		}
	}
}

// Redirects returns how many redirects the client has followed.
func (cc *ClusterClient) Redirects() int64 { return cc.redirects.Load() }

// LostLeases returns how many transactions lost their grants in a
// failover (their re-assert was refused or never landed). A deliberate
// test hook: the failover tests assert on it, and no production path
// reads it.
func (cc *ClusterClient) LostLeases() int64 { return cc.lost.Load() }

// Close ends every node session; the servers release whatever the
// client's transactions still hold. Safe to call from any goroutine;
// in-flight calls fail with ErrClientClosed.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	close(cc.closeCh)
	nodes := make([]*clusterNode, 0, len(cc.nodes))
	for _, n := range cc.nodes {
		nodes = append(nodes, n)
	}
	cc.mu.Unlock()
	cc.wg.Wait()
	var firstErr error
	for _, n := range nodes {
		n.mu.Lock()
		c := n.c
		n.c = nil
		n.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
