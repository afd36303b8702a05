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

// netConfig parameterizes the network lock-service harness (-net).
type netConfig struct {
	workers  int           // concurrent client sessions
	txns     int           // transactions to run across all workers
	ltot     int           // granule space [0, ltot)
	locksPer int           // max granules claimed per transaction
	timeout  time.Duration // per-acquire wait deadline
	faults   bool          // inject drops/delays/partial writes
	seed     uint64
	asJSON   bool
}

// netSummary is what the harness reports.
type netSummary struct {
	Workers     int     `json:"workers"`
	Txns        int     `json:"txns"`
	Timeouts    int64   `json:"timeouts"`     // acquire timeouts retried by workers
	Reconnects  int64   `json:"reconnects"`   // client transport reconnects
	Retries     int64   `json:"retries"`      // client request retries
	Drops       int64   `json:"fault_drops"`  // injected connection drops
	Delays      int64   `json:"fault_delays"` // injected delays
	AcqP50MS    float64 `json:"acq_p50_ms"`   // client-observed acquire latency
	AcqP90MS    float64 `json:"acq_p90_ms"`
	AcqP99MS    float64 `json:"acq_p99_ms"`
	SrvGrants   int64   `json:"srv_grants"`
	SrvTimeouts int64   `json:"srv_timeouts"`
	SrvForced   int64   `json:"srv_force_releases"`
	Residual    int     `json:"residual_holders"` // after drain; must be 0
	ResidualG   int     `json:"residual_granules"`
	ResidualW   int     `json:"residual_waiters"`
}

// runNet drives a closed population of worker sessions against an
// in-process network lock server, optionally through the
// fault-injection transport, and verifies the drain invariant: after
// Close, no session's locks survive in the table. It is the
// adversarial end-to-end proof that the hardened service strands no
// granules under drops, delays, torn writes and acquire timeouts.
func runNet(cfg netConfig, out *os.File) error {
	if cfg.workers < 1 {
		return fmt.Errorf("net: workers %d < 1", cfg.workers)
	}
	if cfg.locksPer < 1 || cfg.locksPer > cfg.ltot {
		return fmt.Errorf("net: locks per txn %d outside [1, ltot=%d]", cfg.locksPer, cfg.ltot)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	table := lockmgr.NewTable()
	srv := locksrv.NewServer(lis, table, locksrv.WithGrace(time.Second))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	addr := lis.Addr().String()

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
		txnSeq     atomic.Int64
		timeouts   atomic.Int64
		reconnects atomic.Int64
		retries    atomic.Int64
		acqMu      sync.Mutex
		acqMS      []float64
	)
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
				locksrv.WithRetries(100),
				locksrv.WithBackoff(time.Millisecond, 50*time.Millisecond),
				locksrv.WithJitterSeed(cfg.seed + uint64(w)),
			}
			if cfg.faults {
				opts = append(opts, locksrv.WithDialer(
					locksrv.FaultyDialer(faultCfg, cfg.seed^uint64(w+1)<<16, &fs)))
			}
			c, err := locksrv.DialV2(addr, opts...)
			if err != nil {
				errCh <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			defer c.Close()
			defer func() {
				reconnects.Add(c.Reconnects())
				retries.Add(c.Retries())
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
				for {
					err := c.AcquireAllTimeout(txn, reqs, cfg.timeout)
					if err == nil {
						break
					}
					if errors.Is(err, locksrv.ErrTimeout) {
						timeouts.Add(1)
						continue // holds nothing; claim again
					}
					errCh <- fmt.Errorf("worker %d txn %d acquire: %w", w, txn, err)
					return
				}
				acqMu.Lock()
				acqMS = append(acqMS, float64(time.Since(start))/float64(time.Millisecond))
				acqMu.Unlock()
				if err := c.ReleaseAll(txn); err != nil {
					errCh <- fmt.Errorf("worker %d txn %d release: %w", w, txn, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		srv.Close()
		return err
	default:
	}

	srvStats := srv.Stats()
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}

	qs := []float64{0, 0, 0}
	if len(acqMS) > 0 {
		qs = stats.Quantiles(acqMS, 0.50, 0.90, 0.99)
	}
	sum := netSummary{
		Workers:     cfg.workers,
		Txns:        cfg.txns,
		Timeouts:    timeouts.Load(),
		Reconnects:  reconnects.Load(),
		Retries:     retries.Load(),
		Drops:       fs.Drops.Load(),
		Delays:      fs.Delays.Load(),
		AcqP50MS:    qs[0],
		AcqP90MS:    qs[1],
		AcqP99MS:    qs[2],
		SrvGrants:   srvStats.Grants,
		SrvTimeouts: srvStats.Timeouts,
		SrvForced:   srvStats.ForceReleases,
		Residual:    table.HoldersCount(),
		ResidualG:   table.LockedGranules(),
		ResidualW:   table.WaitersCount(),
	}
	if sum.Residual != 0 || sum.ResidualG != 0 || sum.ResidualW != 0 {
		return fmt.Errorf("net: %d holders, %d granules, %d waiters stranded after drain",
			sum.Residual, sum.ResidualG, sum.ResidualW)
	}
	if cfg.asJSON {
		return json.NewEncoder(out).Encode(sum)
	}
	fmt.Fprintf(out, "net workers      %d\n", sum.Workers)
	fmt.Fprintf(out, "net txns         %d\n", sum.Txns)
	fmt.Fprintf(out, "acquire timeouts %d (retried)\n", sum.Timeouts)
	fmt.Fprintf(out, "reconnects       %d (retries %d)\n", sum.Reconnects, sum.Retries)
	fmt.Fprintf(out, "injected faults  %d drops, %d delays\n", sum.Drops, sum.Delays)
	fmt.Fprintf(out, "acquire P50      %.2f ms\n", sum.AcqP50MS)
	fmt.Fprintf(out, "acquire P90      %.2f ms\n", sum.AcqP90MS)
	fmt.Fprintf(out, "acquire P99      %.2f ms\n", sum.AcqP99MS)
	fmt.Fprintf(out, "server grants    %d (timeouts %d, force-releases %d)\n",
		sum.SrvGrants, sum.SrvTimeouts, sum.SrvForced)
	fmt.Fprintf(out, "residual holders %d (granules %d, waiters %d)\n",
		sum.Residual, sum.ResidualG, sum.ResidualW)
	return nil
}
