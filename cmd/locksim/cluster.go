package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
	"granulock/internal/rng"
	"granulock/internal/stats"
)

// clusterNetConfig parameterizes the clustered harness (-net with
// -cluster N).
type clusterNetConfig struct {
	netConfig
	nodes int  // cluster members
	kill  bool // kill one node a third of the way through the run
}

// clusterSummary is what the clustered harness reports on top of the
// single-node fields.
type clusterSummary struct {
	netSummary
	Nodes        int   `json:"nodes"`
	KilledNode   int   `json:"killed_node"` // -1 when no kill was injected
	Takeovers    int64 `json:"takeovers"`
	Reasserts    int64 `json:"reasserts"`
	LeaseExpired int64 `json:"lease_expired"`
	Redirects    int64 `json:"redirects"` // server-side redirect answers
	Parked       int64 `json:"parked_acquires"`
	CliFailovers int64 `json:"client_failovers"`
	CliRedirects int64 `json:"client_redirects"`
	LostLeases   int64 `json:"lost_leases"`
}

// runNetCluster drives worker sessions through a partitioned lock
// cluster — optionally with transport fault injection and one node
// killed mid-run — and verifies the failover invariant: the run
// completes, every lease either moves to the standby or expires, and
// after the drain no surviving node strands a granule.
func runNetCluster(cfg clusterNetConfig, out *os.File) error {
	if cfg.nodes < 2 {
		return fmt.Errorf("cluster: need at least 2 nodes, got %d", cfg.nodes)
	}
	if cfg.workers < 1 {
		return fmt.Errorf("cluster: workers %d < 1", cfg.workers)
	}
	if cfg.locksPer < 1 || cfg.locksPer > cfg.ltot {
		return fmt.Errorf("cluster: locks per txn %d outside [1, ltot=%d]", cfg.locksPer, cfg.ltot)
	}
	listeners := make([]net.Listener, cfg.nodes)
	addrs := make([]string, cfg.nodes)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	tables := make([]*lockmgr.Table, cfg.nodes)
	servers := make([]*locksrv.Server, cfg.nodes)
	for i := range servers {
		tables[i] = lockmgr.NewTable()
		servers[i] = locksrv.NewServer(listeners[i], tables[i],
			locksrv.WithGrace(time.Second),
			locksrv.WithCluster(locksrv.ClusterConfig{
				Nodes:           addrs,
				Self:            i,
				HeartbeatEvery:  20 * time.Millisecond,
				HeartbeatMisses: 2,
				RecoveryGrace:   400 * time.Millisecond,
			}))
		go servers[i].Serve()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	faultCfg := locksrv.FaultConfig{}
	if cfg.faults {
		faultCfg = locksrv.FaultConfig{
			DropProb:      0.02,
			DelayProb:     0.10,
			MaxDelay:      2 * time.Millisecond,
			PartialWrites: true,
		}
	}
	var fs locksrv.FaultStats
	var (
		txnSeq       atomic.Int64
		timeouts     atomic.Int64
		reconnects   atomic.Int64
		retries      atomic.Int64
		cliFailovers atomic.Int64
		cliRedirects atomic.Int64
		lostLeases   atomic.Int64
		acqMu        sync.Mutex
		acqMS        []float64
	)

	victim := -1
	if cfg.kill {
		victim = 1 % cfg.nodes
		// Kill the victim once a third of the workload has committed,
		// so failover happens with live traffic and standing leases.
		go func() {
			for txnSeq.Load() < int64(cfg.txns)/3 {
				time.Sleep(time.Millisecond)
			}
			servers[victim].Close()
		}()
	}

	root := rng.New(cfg.seed)
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := root.Stream(uint64(w) + 1)
			opts := []locksrv.ClientOption{
				locksrv.WithRetries(20),
				locksrv.WithBackoff(time.Millisecond, 20*time.Millisecond),
				locksrv.WithJitterSeed(cfg.seed + uint64(w)),
				locksrv.WithLeaseInterval(50 * time.Millisecond),
				locksrv.WithFailoverTimeout(10 * time.Second),
			}
			if cfg.faults {
				opts = append(opts, locksrv.WithDialer(
					locksrv.FaultyDialer(faultCfg, cfg.seed^uint64(w+1)<<16, &fs)))
			}
			cc, err := locksrv.DialCluster(addrs, opts...)
			if err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			defer cc.Close()
			defer func() {
				reconnects.Add(cc.Reconnects())
				retries.Add(cc.Retries())
				cliFailovers.Add(cc.Failovers())
				cliRedirects.Add(cc.Redirects())
				lostLeases.Add(cc.LostLeases())
			}()
			for {
				txn := txnSeq.Add(1)
				if txn > int64(cfg.txns) {
					return
				}
				k := 1 + src.Intn(cfg.locksPer)
				picks := src.Subset(k, cfg.ltot)
				reqs := make([]lockmgr.Request, k)
				for i, g := range picks {
					mode := lockmgr.ModeShared
					if src.Bernoulli(0.5) {
						mode = lockmgr.ModeExclusive
					}
					reqs[i] = lockmgr.Request{Granule: lockmgr.Granule(g), Mode: mode}
				}
				start := time.Now()
				var aerr error
				for attempt := 0; attempt < 200; attempt++ {
					aerr = cc.AcquireAllTimeout(txn, reqs, cfg.timeout)
					if aerr == nil || errors.Is(aerr, locksrv.ErrClientClosed) {
						break
					}
					if errors.Is(aerr, locksrv.ErrTimeout) {
						timeouts.Add(1)
						continue // holds nothing; claim again
					}
					// Anything else is the failover in motion (node died
					// mid-claim, recovery window open, redirect racing a
					// takeover). The claim holds nothing; retry it.
					time.Sleep(2 * time.Millisecond)
				}
				if aerr != nil {
					errCh <- fmt.Errorf("worker %d txn %d acquire: %w", w, txn, aerr)
					return
				}
				acqMu.Lock()
				acqMS = append(acqMS, float64(time.Since(start))/float64(time.Millisecond))
				acqMu.Unlock()
				if err := cc.ReleaseAll(txn); err != nil {
					errCh <- fmt.Errorf("worker %d txn %d release: %w", w, txn, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	// Aggregate surviving-node stats before the drain, then close and
	// check the invariant: nothing stranded anywhere that is still up.
	var sum clusterSummary
	sum.Nodes = cfg.nodes
	sum.KilledNode = victim
	for i, s := range servers {
		if i == victim {
			continue
		}
		st := s.Stats()
		sum.SrvGrants += st.Grants
		sum.SrvTimeouts += st.Timeouts
		sum.SrvForced += st.ForceReleases
		cs := s.ClusterStats()
		sum.Takeovers += cs.Takeovers
		sum.Reasserts += cs.Reasserts
		sum.LeaseExpired += cs.LeaseExpired
		sum.Redirects += cs.Redirects
		sum.Parked += cs.ParkedAcquires
	}
	for i, s := range servers {
		if i == victim {
			continue
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	for i, tbl := range tables {
		if i == victim {
			continue
		}
		sum.Residual += tbl.HoldersCount()
		sum.ResidualG += tbl.LockedGranules()
		sum.ResidualW += tbl.WaitersCount()
	}
	if sum.Residual != 0 || sum.ResidualG != 0 || sum.ResidualW != 0 {
		return fmt.Errorf("cluster: %d holders, %d granules, %d waiters stranded after drain",
			sum.Residual, sum.ResidualG, sum.ResidualW)
	}
	if cfg.kill && sum.Takeovers == 0 {
		return fmt.Errorf("cluster: node %d was killed but no survivor recorded a takeover", victim)
	}

	qs := []float64{0, 0, 0}
	if len(acqMS) > 0 {
		qs = stats.Quantiles(acqMS, 0.50, 0.90, 0.99)
	}
	sum.Workers = cfg.workers
	sum.Txns = cfg.txns
	sum.Timeouts = timeouts.Load()
	sum.Reconnects = reconnects.Load()
	sum.Retries = retries.Load()
	sum.Drops = fs.Drops.Load()
	sum.Delays = fs.Delays.Load()
	sum.AcqP50MS = qs[0]
	sum.AcqP90MS = qs[1]
	sum.AcqP99MS = qs[2]
	sum.CliFailovers = cliFailovers.Load()
	sum.CliRedirects = cliRedirects.Load()
	sum.LostLeases = lostLeases.Load()
	if cfg.asJSON {
		return json.NewEncoder(out).Encode(sum)
	}
	fmt.Fprintf(out, "cluster nodes    %d (killed node %d)\n", sum.Nodes, sum.KilledNode)
	fmt.Fprintf(out, "net workers      %d\n", sum.Workers)
	fmt.Fprintf(out, "net txns         %d\n", sum.Txns)
	fmt.Fprintf(out, "acquire timeouts %d (retried)\n", sum.Timeouts)
	fmt.Fprintf(out, "reconnects       %d (retries %d)\n", sum.Reconnects, sum.Retries)
	fmt.Fprintf(out, "injected faults  %d drops, %d delays\n", sum.Drops, sum.Delays)
	fmt.Fprintf(out, "acquire P50      %.2f ms\n", sum.AcqP50MS)
	fmt.Fprintf(out, "acquire P90      %.2f ms\n", sum.AcqP90MS)
	fmt.Fprintf(out, "acquire P99      %.2f ms\n", sum.AcqP99MS)
	fmt.Fprintf(out, "takeovers        %d (reasserts %d, lease_expired %d)\n",
		sum.Takeovers, sum.Reasserts, sum.LeaseExpired)
	fmt.Fprintf(out, "redirects        %d server, %d client-followed (parked %d)\n",
		sum.Redirects, sum.CliRedirects, sum.Parked)
	fmt.Fprintf(out, "client failovers %d (lost leases %d)\n", sum.CliFailovers, sum.LostLeases)
	fmt.Fprintf(out, "server grants    %d (timeouts %d, force-releases %d)\n",
		sum.SrvGrants, sum.SrvTimeouts, sum.SrvForced)
	fmt.Fprintf(out, "residual holders %d (granules %d, waiters %d)\n",
		sum.Residual, sum.ResidualG, sum.ResidualW)
	return nil
}
