package locksrv

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/rng"
)

// fleetClient is what a fleet worker needs of its client: a single
// server's ClientV2 or a ClusterClient.
type fleetClient interface {
	AcquireAllTimeout(txn int64, reqs []lockmgr.Request, timeout time.Duration) error
	ReleaseAll(txn int64) error
	Close() error
}

// TestFleetDrainsClean drives a closed fleet of worker sessions through
// the fault-injecting transport (drops, delays, torn writes) against a
// single server, and against a three-node cluster that loses a node a
// third of the way through the run. Each transaction claims a random
// set of at most four granules in random S/X modes and retries its
// 200 ms acquire timeouts until a fleet deadline. Once the fleet is done
// and the servers have drained, no surviving table may hold a granule,
// a holder or a waiter, and in the cluster the killed node's successor
// must have taken over.
func TestFleetDrainsClean(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workers  int
		nodes    int // 1: a single server; more: a cluster losing node 1
		txns     int
		ltot     int
		seed     uint64
		failover bool // acquire errors other than a timeout are retried
	}{
		{name: "single", workers: 8, nodes: 1, txns: 1000, ltot: 100, seed: 1},
		{name: "cluster", workers: 6, nodes: 3, txns: 600, ltot: 100, seed: 1, failover: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := FaultConfig{DropProb: 0.02, DelayProb: 0.10, MaxDelay: 2 * time.Millisecond, PartialWrites: true}
			var fs FaultStats
			var servers []*Server
			var dial func(w int) (fleetClient, error)
			if tc.nodes == 1 {
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				srv := NewServer(lis, nil, WithGrace(time.Second))
				go srv.Serve()
				t.Cleanup(func() { srv.Close() })
				servers = []*Server{srv}
				dial = func(w int) (fleetClient, error) {
					return DialV2(lis.Addr().String(),
						WithRetries(100),
						WithBackoff(time.Millisecond, 50*time.Millisecond),
						WithJitterSeed(tc.seed+uint64(w)),
						WithDialer(FaultyDialer(faults, tc.seed^uint64(w+1)<<16, &fs)))
				}
			} else {
				var addrs []string
				addrs, servers = startCluster(t, tc.nodes, func(_ int, cfg *ClusterConfig) {
					cfg.HeartbeatEvery = 20 * time.Millisecond
					cfg.HeartbeatMisses = 2
					cfg.RecoveryGrace = 400 * time.Millisecond
				}, WithGrace(time.Second))
				dial = func(w int) (fleetClient, error) {
					return DialCluster(addrs,
						WithRetries(20),
						WithBackoff(time.Millisecond, 20*time.Millisecond),
						WithJitterSeed(tc.seed+uint64(w)),
						WithLeaseInterval(50*time.Millisecond),
						WithFailoverTimeout(10*time.Second),
						WithDialer(FaultyDialer(faults, tc.seed^uint64(w+1)<<16, &fs)))
				}
			}

			victim := -1
			if tc.nodes > 1 {
				victim = 1
			}
			var txnSeq atomic.Int64
			// The fleet takes about a second. A granule stranded by a
			// lost release makes every claim on it time out until this
			// deadline, and a call that never returns fails the run
			// shortly after it.
			deadline := time.Now().Add(30 * time.Second)
			root := rng.New(tc.seed)
			var wg sync.WaitGroup
			errCh := make(chan error, tc.workers)
			for w := 0; w < tc.workers; w++ {
				src := root.Stream(uint64(w) + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := dial(w)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					defer c.Close()
					for txn := txnSeq.Add(1); txn <= int64(tc.txns); txn = txnSeq.Add(1) {
						if victim >= 0 && txn == int64(tc.txns)/3 {
							// Fail over under live traffic and standing
							// leases.
							servers[victim].Close()
						}
						picks := src.Subset(1+src.Intn(4), tc.ltot)
						reqs := make([]lockmgr.Request, len(picks))
						for i, g := range picks {
							mode := lockmgr.ModeShared
							if src.Bernoulli(0.5) {
								mode = lockmgr.ModeExclusive
							}
							reqs[i] = lockmgr.Request{Granule: lockmgr.Granule(g), Mode: mode}
						}
						aerr := c.AcquireAllTimeout(txn, reqs, 200*time.Millisecond)
						for aerr != nil && !errors.Is(aerr, ErrClientClosed) && time.Now().Before(deadline) {
							if !errors.Is(aerr, ErrTimeout) {
								if !tc.failover {
									break
								}
								// A node died mid-claim, a recovery window
								// is open, or a redirect raced the takeover.
								time.Sleep(2 * time.Millisecond)
							}
							// The claim holds nothing: claim again.
							aerr = c.AcquireAllTimeout(txn, reqs, 200*time.Millisecond)
						}
						if aerr != nil {
							errCh <- fmt.Errorf("worker %d txn %d acquire: %w", w, txn, aerr)
							return
						}
						if err := c.ReleaseAll(txn); err != nil {
							errCh <- fmt.Errorf("worker %d txn %d release: %w", w, txn, err)
							return
						}
					}
				}()
			}
			fleetDone := make(chan struct{})
			go func() { wg.Wait(); close(fleetDone) }()
			select {
			case <-fleetDone:
			case <-time.After(time.Until(deadline) + 10*time.Second):
				t.Fatal("a worker is stuck in one call past the fleet deadline")
			}
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if t.Failed() {
				return
			}

			var takeovers int64
			for i, srv := range servers {
				if i == victim {
					continue
				}
				if tc.nodes > 1 {
					takeovers += srv.ClusterStats().Takeovers
				}
				if err := srv.Close(); err != nil {
					t.Fatalf("node %d drain: %v", i, err)
				}
				tbl := srv.Table()
				if h, g, wt := tbl.HoldersCount(), tbl.LockedGranules(), tbl.WaitersCount(); h != 0 || g != 0 || wt != 0 {
					t.Errorf("node %d stranded %d holders, %d granules, %d waiters after drain", i, h, g, wt)
				}
			}
			if tc.nodes > 1 && takeovers == 0 {
				t.Errorf("node %d was killed but no survivor recorded a takeover", victim)
			}
			t.Logf("faults injected: %d drops, %d delays", fs.Drops.Load(), fs.Delays.Load())
		})
	}
}
