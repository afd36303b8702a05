package locksrv

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"granulock/internal/ring"
)

// startCluster launches an n-node cluster on ephemeral ports. mut may
// adjust each node's ClusterConfig (heartbeat cadence, recovery
// grace) before the server starts. Servers still running at test end
// are closed by cleanup; tests that kill a node mid-run just call its
// Close earlier (Close is idempotent).
func startCluster(t *testing.T, n int, mut func(i int, cfg *ClusterConfig), srvOpts ...ServerOption) ([]string, []*Server) {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := ClusterConfig{Nodes: addrs, Self: i}
		if mut != nil {
			mut(i, &cfg)
		}
		srv := NewServer(listeners[i], nil, append(append([]ServerOption(nil), srvOpts...), WithCluster(cfg))...)
		go srv.Serve()
		servers[i] = srv
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})
	return addrs, servers
}

// granulesOwnedBy returns count granules owned by node under the
// default ring of n nodes, scanning ids upward from 0.
func granulesOwnedBy(n, node, count int) []int64 {
	r := ring.New(n)
	out := make([]int64, 0, count)
	for g := int64(0); len(out) < count; g++ {
		if r.Owner(uint64(g)) == node {
			out = append(out, g)
		}
	}
	return out
}

// A single-node client talking to the wrong node gets a typed redirect
// carrying the owner's index and address, and the node counts it; a
// granule the node does own is served in place.
func TestClusterRedirectV2(t *testing.T) {
	addrs, servers := startCluster(t, 2, nil)
	owned := granulesOwnedBy(2, 0, 1)[0]
	foreign := granulesOwnedBy(2, 1, 1)[0]
	c := dial(t, addrs[0], WithRetries(0))
	if err := c.AcquireAll(3, xreq(owned)); err != nil {
		t.Fatalf("acquire of owned granule: %v", err)
	}
	if err := c.ReleaseAll(3); err != nil {
		t.Fatal(err)
	}
	err := c.AcquireAll(1, xreq(foreign))
	var re *RedirectError
	if !errors.As(err, &re) {
		t.Fatalf("want RedirectError, got %v", err)
	}
	if re.Node != 1 || re.Addr != addrs[1] {
		t.Fatalf("redirect to node %d addr %q, want node 1 addr %q", re.Node, re.Addr, addrs[1])
	}
	if !errors.Is(err, ErrRedirect) {
		t.Fatalf("redirect error does not match ErrRedirect: %v", err)
	}
	if n := servers[0].ClusterStats().Redirects; n != 1 {
		t.Fatalf("redirects counter %d, want 1", n)
	}
	// The same claim against the owning node succeeds.
	c1 := dial(t, addrs[1], WithRetries(0))
	if err := c1.AcquireAll(1, xreq(foreign)); err != nil {
		t.Fatalf("acquire on owner: %v", err)
	}
	if err := c1.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// The cluster client splits a claim across partitions, acquires
// all-or-nothing, and releases everywhere.
func TestClusterClientRoutesAcrossNodes(t *testing.T) {
	addrs, servers := startCluster(t, 2, nil)
	cc, err := DialCluster(addrs, WithLeaseInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	reqs := append(xreq(granulesOwnedBy(2, 0, 2)...), xreq(granulesOwnedBy(2, 1, 2)...)...)
	if err := cc.AcquireAll(1, reqs); err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if n := srv.Table().HeldBy(1); n != 2 {
			t.Fatalf("node %d holds %d granules for txn 1, want 2", i, n)
		}
	}
	if n := cc.Redirects(); n != 0 {
		t.Fatalf("client followed %d redirects with a correct ring view", n)
	}
	if err := cc.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	for i, srv := range servers {
		if n := srv.Table().LockedGranules(); n != 0 {
			t.Fatalf("node %d still has %d locked granules", i, n)
		}
	}
}

// A cluster client with a stale one-node ring view still lands every
// claim by following redirects, including redirects arriving
// mid-pipeline from concurrent calls over the shared connection.
func TestClusterClientStaleViewRedirectMidPipeline(t *testing.T) {
	addrs, servers := startCluster(t, 2, nil)
	// The client only knows node 0, so it routes everything there and
	// must follow redirects to node 1 for roughly half the granules.
	cc, err := DialCluster(addrs[:1], WithLeaseInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One granule per claim: a redirect can correct the routing
			// of a whole claim, but not split a claim the stale ring
			// wrongly grouped across partitions (see DialCluster docs).
			for k := 0; k < 3; k++ {
				txn := int64(100 + w*3 + k)
				if err := cc.AcquireAll(txn, xreq(int64(w*3+k))); err != nil {
					errs[w] = err
					return
				}
				if err := cc.ReleaseAll(txn); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if cc.Redirects() == 0 {
		t.Fatal("no redirects followed despite the stale ring view")
	}
	for i, srv := range servers {
		if n := srv.Table().LockedGranules(); n != 0 {
			t.Fatalf("node %d still has %d locked granules", i, n)
		}
	}
	if n := servers[1].Table().Stats().Grants; n == 0 {
		t.Fatal("node 1 never granted anything; redirects were not followed")
	}
}

// Failover with re-assertion: kill the node holding a grant, let the
// standby take over, and verify the client's lease re-assert
// reconstructs the grant — mutual exclusion survives the failover.
func TestClusterFailoverReassertsGrants(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 400 * time.Millisecond
	})
	g := granulesOwnedBy(2, 0, 2)
	cc, err := DialCluster(addrs,
		WithLeaseInterval(25*time.Millisecond),
		WithFailoverTimeout(5*time.Second),
		WithRetries(1), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.AcquireAll(1, xreq(g...)); err != nil {
		t.Fatal(err)
	}
	// Kill node 0 and hand its partition to node 1 (deterministic
	// takeover; TestClusterKillNodeUnderLoadDrainsClean and
	// TestFleetDrainsClean run the real heartbeat detector).
	servers[0].Close()
	if !servers[1].BeginTakeover(0) {
		t.Fatal("BeginTakeover refused")
	}
	// The client's lease loop must notice the death and re-assert to
	// the standby within the recovery window.
	deadline := time.Now().Add(3 * time.Second)
	for servers[1].Table().HeldBy(1) != len(g) {
		if time.Now().After(deadline) {
			t.Fatalf("grants not reconstructed on standby; holds %d of %d",
				servers[1].Table().HeldBy(1), len(g))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cs := servers[1].ClusterStats()
	if cs.Takeovers != 1 || cs.Reasserts == 0 {
		t.Fatalf("standby cluster stats %+v, want 1 takeover and >0 reasserts", cs)
	}
	if n := cc.LostLeases(); n != 0 {
		t.Fatalf("%d leases lost during clean failover", n)
	}
	// Mutual exclusion: a second client cannot take the granule while
	// the reconstructed grant lives...
	cc2, err := DialCluster(addrs, WithLeaseInterval(0),
		WithFailoverTimeout(5*time.Second),
		WithRetries(1), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	if err := cc2.AcquireAllTimeout(2, xreq(g[0]), 100*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("conflicting acquire after failover: want ErrTimeout, got %v", err)
	}
	// ...and can once the owner releases.
	if err := cc.ReleaseAll(1); err != nil {
		t.Fatalf("release after failover: %v", err)
	}
	if err := cc2.AcquireAllTimeout(2, xreq(g[0]), 2*time.Second); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if err := cc2.ReleaseAll(2); err != nil {
		t.Fatal(err)
	}
}

// Grants that nobody re-asserts die with the recovery window: new
// acquires park until the seal, then take the granule; a late assert
// fails with lease_expired.
func TestClusterFailoverExpiresUnreasserted(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 150 * time.Millisecond
	})
	g := granulesOwnedBy(2, 0, 1)
	// A raw v2 client (no failover machinery) holds the granule, then
	// its node dies and the client never re-asserts.
	holder := dial(t, addrs[0], WithRetries(0))
	if err := holder.AcquireAll(7, xreq(g...)); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	holder.Close()
	if !servers[1].BeginTakeover(0) {
		t.Fatal("BeginTakeover refused")
	}
	// A fresh acquire parks behind the open window, then gets the
	// granule: the unreasserted grant did not survive.
	cc, err := DialCluster(addrs, WithLeaseInterval(0),
		WithFailoverTimeout(5*time.Second),
		WithRetries(1), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	start := time.Now()
	if err := cc.AcquireAllTimeout(8, xreq(g...), 3*time.Second); err != nil {
		t.Fatalf("acquire after failover: %v", err)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatalf("acquire did not park behind the recovery window (took %v)", time.Since(start))
	}
	// The dead transaction's late re-assert is refused.
	late := dial(t, addrs[1], WithRetries(0))
	outs, err := late.Lease(1, []LeaseTxn{{Txn: 7, Reqs: xreq(g...)}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0], ErrLeaseExpired) {
		t.Fatalf("late re-assert: want ErrLeaseExpired, got %v", outs[0])
	}
	cs := servers[1].ClusterStats()
	if cs.ParkedAcquires == 0 || cs.LeaseExpired == 0 {
		t.Fatalf("standby cluster stats %+v, want parked acquires and expired leases", cs)
	}
	if err := cc.ReleaseAll(8); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRecoveryWaitCountsFromArrival: an acquire that waits
// behind an open recovery window and is granted at once after the seal
// waited the whole window, and its wait sample says so — it counts from
// the acquire's arrival, not from the seal.
func TestClusterRecoveryWaitCountsFromArrival(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 200 * time.Millisecond
	})
	if !servers[1].BeginTakeover(0) {
		t.Fatal("BeginTakeover refused")
	}
	c := dial(t, addrs[1], WithRetries(0))
	if err := c.AcquireAll(1, xreq(granulesOwnedBy(2, 0, 1)...)); err != nil {
		t.Fatal(err)
	}
	if st := servers[1].Stats(); st.WaitSamples != 1 || st.WaitP99MS < 150 {
		t.Fatalf("%d wait samples, p99 %.1f ms; want one of at least 150 ms", st.WaitSamples, st.WaitP99MS)
	}
	if err := c.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// The acceptance scenario under -race: a 3-node cluster with the real
// heartbeat failure detector, a worker fleet, and one node killed
// mid-run. The run must finish and drain with zero stranded granules
// on the survivors.
func TestClusterKillNodeUnderLoadDrainsClean(t *testing.T) {
	_, servers := startCluster(t, 3, func(i int, cfg *ClusterConfig) {
		cfg.HeartbeatEvery = 20 * time.Millisecond
		cfg.HeartbeatMisses = 2
		cfg.RecoveryGrace = 250 * time.Millisecond
	})
	addrs := []string{servers[0].Addr().String(), servers[1].Addr().String(), servers[2].Addr().String()}
	cc, err := DialCluster(addrs,
		WithLeaseInterval(50*time.Millisecond),
		WithFailoverTimeout(10*time.Second),
		WithRetries(2), WithBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	const workers = 4
	const txnsPerWorker = 30
	var killOnce sync.Once
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txnsPerWorker; i++ {
				if w == 0 && i == txnsPerWorker/3 {
					// Kill node 1 mid-run; node 2 (its successor) must
					// detect it via heartbeats and take over.
					killOnce.Do(func() { servers[1].Close() })
				}
				txn := int64(w*1000 + i + 1)
				a := int64((w*txnsPerWorker + i) % 60)
				b := (a + 13) % 60
				reqs := xreq(a, b)
				var aerr error
				for attempt := 0; attempt < 40; attempt++ {
					aerr = cc.AcquireAllTimeout(txn, reqs, time.Second)
					if aerr == nil || errors.Is(aerr, ErrClientClosed) {
						break
					}
					// Timeouts, failover windows and node death are all
					// retriable here; the claim restarts from nothing.
					time.Sleep(2 * time.Millisecond)
				}
				if aerr != nil {
					errCh <- fmt.Errorf("worker %d txn %d: acquire: %w", w, txn, aerr)
					return
				}
				if rerr := cc.ReleaseAll(txn); rerr != nil {
					errCh <- fmt.Errorf("worker %d txn %d: release: %w", w, txn, rerr)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	cc.Close()
	// The survivors must hold nothing: every grant was released or
	// died with its session/node.
	deadline := time.Now().Add(2 * time.Second)
	for _, i := range []int{0, 2} {
		for {
			tbl := servers[i].Table()
			if tbl.HoldersCount() == 0 && tbl.LockedGranules() == 0 && tbl.WaitersCount() == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d stranded state: holders=%d granules=%d waiters=%d",
					i, tbl.HoldersCount(), tbl.LockedGranules(), tbl.WaitersCount())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if n := servers[2].ClusterStats().Takeovers; n != 1 {
		t.Fatalf("successor recorded %d takeovers, want 1", n)
	}
}

// sealTakeover hands node dead's partition to srv and returns once its
// recovery window has sealed.
func sealTakeover(t *testing.T, srv *Server, dead int) {
	t.Helper()
	if !srv.BeginTakeover(dead) {
		t.Fatal("BeginTakeover refused")
	}
	<-srv.cluster.takeoverOf(dead).sealed
}

// A re-assert that arrives after the recovery window sealed is refused:
// the grant died with its node, and the standby must not bring it back.
// A grant the standby made after the seal still refreshes.
func TestClusterLeaseAfterSealExpires(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 50 * time.Millisecond
	})
	g := xreq(granulesOwnedBy(2, 0, 1)...)
	holder := dial(t, addrs[0], WithRetries(0))
	if err := holder.AcquireAll(7, g); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	sealTakeover(t, servers[1], 0)
	c := dial(t, addrs[1], WithRetries(0))
	outs, err := c.Lease(1, []LeaseTxn{{Txn: 7, Reqs: g}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0], ErrLeaseExpired) {
		t.Fatalf("re-assert after the seal: want ErrLeaseExpired, got %v", outs[0])
	}
	if n := servers[1].Table().HeldBy(7); n != 0 {
		t.Fatalf("standby holds %d granules for the expired transaction", n)
	}
	if cs := servers[1].ClusterStats(); cs.Reasserts != 0 || cs.LeaseExpired != 1 {
		t.Fatalf("standby cluster stats %+v, want no reasserts and one expired lease", cs)
	}
	if err := c.AcquireAll(8, g); err != nil {
		t.Fatal(err)
	}
	outs, err = c.Lease(1, []LeaseTxn{{Txn: 8, Reqs: g}})
	if err != nil || outs[0] != nil {
		t.Fatalf("refresh of a grant made after the seal: %v, %v", outs, err)
	}
	if n := servers[1].Table().HeldBy(8); n != 1 {
		t.Fatalf("standby holds %d granules for the refreshed transaction, want 1", n)
	}
	if err := c.ReleaseAll(8); err != nil {
		t.Fatal(err)
	}
}

// A refresh answers OK only for grants its transaction holds. Txn 7
// holds granule a on node 1; after node 0 dies, the same session
// asserts 7 on b, a granule of node 0's adopted partition that 7 never
// held on node 1. Answering that refresh OK would leave 7 believing it
// holds b while, after the seal, txn 8 is granted b: two holders of one
// exclusive granule.
func TestClusterLeaseRefreshRequiresHeldGrants(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 50 * time.Millisecond
	})
	a := xreq(granulesOwnedBy(2, 1, 1)...)
	b := xreq(granulesOwnedBy(2, 0, 1)...)
	c := dial(t, addrs[1], WithRetries(0))
	if err := c.AcquireAll(7, a); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	if !servers[1].BeginTakeover(0) {
		t.Fatal("BeginTakeover refused")
	}
	outs, err := c.Lease(1, []LeaseTxn{{Txn: 7, Reqs: b}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(outs[0], ErrLeaseExpired) {
		t.Fatalf("refresh asserting a grant the transaction does not hold: want ErrLeaseExpired, got %v", outs[0])
	}
	if n := servers[1].Table().HeldBy(7); n != 1 {
		t.Fatalf("node 1 holds %d granules for txn 7, want its 1", n)
	}
	<-servers[1].cluster.takeoverOf(0).sealed
	other := dial(t, addrs[1], WithRetries(0))
	if err := other.AcquireAll(8, b); err != nil {
		t.Fatal(err)
	}
	// The refresh of what 7 does hold still answers OK.
	outs, err = c.Lease(1, []LeaseTxn{{Txn: 7, Reqs: a}})
	if err != nil || outs[0] != nil {
		t.Fatalf("refresh of a held grant: %v, %v", outs, err)
	}
	for txn, cl := range map[int64]*ClientV2{7: c, 8: other} {
		if err := cl.ReleaseAll(txn); err != nil {
			t.Fatal(err)
		}
	}
}

// A lease rebuilds a transaction only into an adopted partition whose
// recovery window is open. A grant in a node's own partition, or on a
// server that is not clustered, dies with its session: txn 7's session
// closes, txn 8 takes and releases the granule, and a later lease for 7
// from a new session must not bring 7's grant back.
func TestLeaseDoesNotRebuildOwnPartitionGrant(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		t.Run(fmt.Sprintf("clustered=%v", clustered), func(t *testing.T) {
			var addr string
			var srv *Server
			g := xreq(granulesOwnedBy(2, 0, 1)...)
			if clustered {
				addrs, servers := startCluster(t, 2, nil)
				addr, srv = addrs[0], servers[0]
			} else {
				addr, srv = startServer(t)
			}
			holder := dial(t, addr, WithRetries(0))
			if err := holder.AcquireAll(7, g); err != nil {
				t.Fatal(err)
			}
			holder.Close()
			// 8 is granted once the server has torn 7's session down.
			next := dial(t, addr, WithRetries(0))
			if err := next.AcquireAll(8, g); err != nil {
				t.Fatal(err)
			}
			if err := next.ReleaseAll(8); err != nil {
				t.Fatal(err)
			}
			late := dial(t, addr, WithRetries(0))
			outs, err := late.Lease(1, []LeaseTxn{{Txn: 7, Reqs: g}})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(outs[0], ErrLeaseExpired) {
				t.Fatalf("lease for a transaction whose session died: want ErrLeaseExpired, got %v", outs[0])
			}
			if n := srv.Table().HeldBy(7); n != 0 {
				t.Fatalf("server holds %d granules for the dead transaction", n)
			}
		})
	}
}

// Every cluster client draws its own lease id, whatever its jitter seed.
func TestDialClusterLeaseIDsDiffer(t *testing.T) {
	var ids [2]uint64
	for i := range ids {
		cc, err := DialCluster([]string{"127.0.0.1:1"}, WithLeaseInterval(0))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = cc.leaseID
		cc.Close()
	}
	if ids[0] == ids[1] {
		t.Fatalf("two cluster clients share lease id %d", ids[0])
	}
}

// A node marked down by mistake, which still serves its partition, is
// cleared by a probe when the cluster redirects back to it, and the
// acquire is granted there.
func TestClusterClientProbesFalseDown(t *testing.T) {
	addrs, servers := startCluster(t, 2, nil)
	cc, err := DialCluster(addrs, WithLeaseInterval(0), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.nodeFailed(0) // node 0 is alive and nobody adopts its partition
	if !cc.isDown(0) {
		t.Fatal("node 0 not marked down")
	}
	if err := cc.AcquireAll(1, xreq(granulesOwnedBy(2, 0, 1)...)); err != nil {
		t.Fatal(err)
	}
	if n := servers[0].Table().HeldBy(1); n != 1 {
		t.Fatalf("node 0 holds %d granules for txn 1, want 1", n)
	}
	if n := cc.Redirects(); n != 1 {
		t.Fatalf("client followed %d redirects, want 1", n)
	}
	if cc.isDown(0) {
		t.Fatal("the probe did not clear node 0's down marking")
	}
	if err := cc.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if n := servers[0].Table().LockedGranules(); n != 0 {
		t.Fatalf("node 0 still has %d locked granules", n)
	}
}

// After a takeover both partitions of a 2-node ring are served by the
// survivor, so a claim spanning them lands its first group there and
// finds it when the second arrives: the two are re-claimed as one claim,
// which ReleaseAll frees whole.
func TestClusterClientMergesCollapsedPartitions(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 20 * time.Millisecond
	})
	servers[0].Close()
	sealTakeover(t, servers[1], 0)
	cc, err := DialCluster(addrs, WithLeaseInterval(0), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.nodeFailed(0)
	reqs := append(xreq(granulesOwnedBy(2, 0, 2)...), xreq(granulesOwnedBy(2, 1, 2)...)...)
	if err := cc.AcquireAll(1, reqs); err != nil {
		t.Fatal(err)
	}
	if n := servers[1].Table().HeldBy(1); n != len(reqs) {
		t.Fatalf("survivor holds %d granules for txn 1, want %d", n, len(reqs))
	}
	cc.mu.Lock()
	held := cc.holds[1]
	cc.mu.Unlock()
	if len(held) != 1 || len(held[addrs[1]]) != len(reqs) {
		t.Fatalf("client records %v for txn 1, want all %d granules on node 1", held, len(reqs))
	}
	if err := cc.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if n := servers[1].Table().LockedGranules(); n != 0 {
		t.Fatalf("survivor still has %d locked granules", n)
	}
}

// A failover re-assert the standby refuses loses the lease: LostLeases
// counts it, the holdings are forgotten, and the transaction's
// ReleaseAll is a no-op.
func TestClusterClientRefusedReassertIsLost(t *testing.T) {
	addrs, servers := startCluster(t, 2, func(i int, cfg *ClusterConfig) {
		cfg.RecoveryGrace = 20 * time.Millisecond
	})
	cc, err := DialCluster(addrs, WithLeaseInterval(0), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.AcquireAll(1, xreq(granulesOwnedBy(2, 0, 1)...)); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	sealTakeover(t, servers[1], 0)
	cc.nodeFailed(0)
	if n := cc.LostLeases(); n != 1 {
		t.Fatalf("%d leases lost, want 1", n)
	}
	if cc.holdsAt(1, addrs[0]) || cc.holdsAt(1, addrs[1]) {
		t.Fatal("client still records the lost transaction")
	}
	if err := cc.ReleaseAll(1); err != nil {
		t.Fatalf("release of a lost transaction: %v", err)
	}
	if n := servers[1].Table().LockedGranules(); n != 0 {
		t.Fatalf("standby has %d locked granules", n)
	}
}
