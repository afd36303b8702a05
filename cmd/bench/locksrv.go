// The locksrv benchmark suite: service-level throughput of the network
// lock server over loopback TCP, crossing how a connection is used
// (serial: one request in flight, vs pipelined, vs batched frames) with
// lock-table sharding (1 vs 16 stripes) and contention (private
// granules vs a small shared pool), plus in-process lockmgr
// microbenchmarks and the cluster-scaling curve over a fixed-RTT
// transport (cluster.go). The headline comparisons — pipelined +
// sharded vs serial + single stripe, uncontended (4x floor), and 2-node
// vs 1-node cluster throughput (1.8x floor) — are acceptance numbers.
//
// Honesty notes baked into the output: GOMAXPROCS is recorded because
// sharding cannot buy wall-clock parallelism on one CPU (its effect
// there is limited to shorter critical sections), and contended numbers
// are reported alongside uncontended ones rather than hidden.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
)

// lsEntry is one scenario's record in BENCH_locksrv.json.
type lsEntry struct {
	Name    string `json:"name"`
	Mode    string `json:"mode,omitempty"`    // "serial" | "pipelined" | "batched"
	Shards  int    `json:"shards,omitempty"`  // lock-table stripes
	Clients int    `json:"clients,omitempty"` // connections
	Workers int    `json:"workers,omitempty"` // concurrent request loops per connection
	Batch   int    `json:"batch,omitempty"`   // claims per acquireN frame (batched mode)
	Pool    int    `json:"pool,omitempty"`    // shared granule pool (contended runs)
	Fast    bool   `json:"fast,omitempty"`    // lock-free fast path enabled (lockmgr suite)
	Nodes   int    `json:"nodes,omitempty"`   // cluster members (cluster scenarios)

	// RTTMs is the injected per-pair round-trip time of the delayed
	// transport (cluster scenarios; see cluster.go).
	RTTMs float64 `json:"rtt_ms,omitempty"`

	Ops         int64   `json:"ops"` // acquire+release pairs completed
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"` // lockmgr microbenches only
}

// lsComparison is a derived ratio between two scenarios.
type lsComparison struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Speedup     float64 `json:"speedup"`
	Target      float64 `json:"target,omitempty"` // acceptance floor, when one exists
	Pass        bool    `json:"pass,omitempty"`
}

// lsReport is the top-level BENCH_locksrv.json document.
type lsReport struct {
	Schema      string         `json:"schema"`
	Generated   string         `json:"generated"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Quick       bool           `json:"quick"`
	Benchmarks  []lsEntry      `json:"benchmarks"`
	Comparisons []lsComparison `json:"comparisons"`
}

// scenario describes one service benchmark configuration.
type scenario struct {
	name    string
	mode    string // "serial" | "pipelined" | "batched"
	shards  int
	clients int
	workers int // per client; 1 for serial
	batch   int // batched mode only
	pool    int // 0: uncontended (private granules per worker)
}

// txnSeq hands every benchmark transaction a process-unique id.
var txnSeq atomic.Int64

// benchFilter, when non-empty, restricts the locksrv suite to scenarios
// whose name contains it (set by the -run flag; comparisons are skipped
// because their inputs may be missing).
var benchFilter string

// runScenario stands up a fresh server with the scenario's table, runs
// the workload, and returns the measured entry.
func runScenario(sc scenario, pairsPerWorker int) (lsEntry, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return lsEntry{}, err
	}
	table := lockmgr.NewTable(lockmgr.WithShards(sc.shards))
	srv := locksrv.NewServer(lis, table)
	go srv.Serve()
	defer srv.Close()
	addr := lis.Addr().String()

	type worker struct {
		run func() error
	}
	var workers []worker
	var closers []func() error
	defer func() {
		for _, c := range closers {
			c()
		}
	}()

	// granuleFor maps (global worker index, op index) to a granule:
	// private 512-granule range per worker when uncontended, a small
	// shared pool when contended.
	granuleFor := func(gw, op int) lockmgr.Granule {
		if sc.pool > 0 {
			return lockmgr.Granule((op*7 + gw*13) % sc.pool)
		}
		return lockmgr.Granule(gw*1024 + op%512)
	}

	for ci := 0; ci < sc.clients; ci++ {
		c, err := locksrv.DialV2(addr)
		if err != nil {
			return lsEntry{}, err
		}
		closers = append(closers, c.Close)
		for w := 0; w < sc.workers; w++ {
			gw := ci*sc.workers + w
			if sc.mode == "batched" {
				workers = append(workers, worker{run: func() error {
					for done := 0; done < pairsPerWorker; done += sc.batch {
						n := sc.batch
						if left := pairsPerWorker - done; left < n {
							n = left
						}
						claims := make([]locksrv.Claim, n)
						txns := make([]int64, n)
						for i := range claims {
							txns[i] = txnSeq.Add(1)
							claims[i] = locksrv.Claim{
								Txn:  txns[i],
								Reqs: []lockmgr.Request{{Granule: granuleFor(gw, done+i), Mode: lockmgr.ModeExclusive}},
							}
						}
						outs, err := c.AcquireN(claims)
						if err != nil {
							return err
						}
						for i, e := range outs {
							if e != nil {
								return fmt.Errorf("claim %d: %w", i, e)
							}
						}
						routs, err := c.ReleaseN(txns)
						if err != nil {
							return err
						}
						for i, e := range routs {
							if e != nil {
								return fmt.Errorf("release %d: %w", i, e)
							}
						}
					}
					return nil
				}})
				continue
			}
			workers = append(workers, worker{run: func() error {
				for op := 0; op < pairsPerWorker; op++ {
					txn := txnSeq.Add(1)
					req := []lockmgr.Request{{Granule: granuleFor(gw, op), Mode: lockmgr.ModeExclusive}}
					if err := c.AcquireAll(txn, req); err != nil {
						return err
					}
					if err := c.ReleaseAll(txn); err != nil {
						return err
					}
				}
				return nil
			}})
		}
	}

	// Batched workers count pairs the same way (pairsPerWorker each), so
	// uncontended granule ranges stay private per worker.
	errCh := make(chan error, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.run(); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return lsEntry{}, fmt.Errorf("%s: %w", sc.name, err)
	default:
	}

	pairs := int64(len(workers)) * int64(pairsPerWorker)
	ns := float64(elapsed.Nanoseconds())
	return lsEntry{
		Name:      sc.name,
		Mode:      sc.mode,
		Shards:    sc.shards,
		Clients:   sc.clients,
		Workers:   sc.workers,
		Batch:     sc.batch,
		Pool:      sc.pool,
		Ops:       pairs,
		NsPerOp:   ns / float64(pairs),
		OpsPerSec: float64(pairs) / ns * 1e9,
	}, nil
}

// lockmgrBench measures one in-process table configuration with the
// standard benchmark harness.
func lockmgrBench(name string, shards, granulesPerClaim int) lsEntry {
	table := lockmgr.NewTable(lockmgr.WithShards(shards))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		reqs := make([]lockmgr.Request, granulesPerClaim)
		for i := 0; i < b.N; i++ {
			txn := lockmgr.TxnID(txnSeq.Add(1))
			for j := range reqs {
				reqs[j] = lockmgr.Request{Granule: lockmgr.Granule((i%512)*16 + j), Mode: lockmgr.ModeExclusive}
			}
			if err := table.AcquireAll(context.Background(), txn, reqs); err != nil {
				b.Fatal(err)
			}
			table.ReleaseAll(txn)
		}
	})
	ns := float64(r.NsPerOp())
	return lsEntry{
		Name:        name,
		Shards:      shards,
		Ops:         int64(r.N),
		NsPerOp:     ns,
		OpsPerSec:   1e9 / ns,
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// lockmgrContendedBench measures the table under goroutine contention on
// a small shared pool.
func lockmgrContendedBench(name string, shards int) lsEntry {
	table := lockmgr.NewTable(lockmgr.WithShards(shards))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				txn := lockmgr.TxnID(txnSeq.Add(1))
				g := lockmgr.Granule(int(txn*7) % 16)
				if err := table.AcquireAll(context.Background(), txn, []lockmgr.Request{{Granule: g, Mode: lockmgr.ModeExclusive}}); err != nil {
					b.Error(err)
					return
				}
				table.ReleaseAll(txn)
				i++
			}
		})
	})
	ns := float64(r.NsPerOp())
	return lsEntry{
		Name:        name,
		Shards:      shards,
		Ops:         int64(r.N),
		NsPerOp:     ns,
		OpsPerSec:   1e9 / ns,
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// compare derives a named speedup ratio between two recorded entries.
func compare(entries []lsEntry, name, num, den string, target float64) (lsComparison, error) {
	find := func(n string) (lsEntry, error) {
		for _, e := range entries {
			if e.Name == n {
				return e, nil
			}
		}
		return lsEntry{}, fmt.Errorf("comparison %s: no entry %q", name, n)
	}
	ne, err := find(num)
	if err != nil {
		return lsComparison{}, err
	}
	de, err := find(den)
	if err != nil {
		return lsComparison{}, err
	}
	c := lsComparison{
		Name:        name,
		Numerator:   num,
		Denominator: den,
		Speedup:     ne.OpsPerSec / de.OpsPerSec,
		Target:      target,
	}
	if target > 0 {
		c.Pass = c.Speedup >= target
	}
	return c, nil
}

// runLocksrv executes the lock-service suite and returns the marshalled
// BENCH_locksrv.json document.
func runLocksrv(quick bool) ([]byte, error) {
	const (
		clients  = 8
		inflight = 32
		batch    = 32
		pool     = 8
	)
	serialPairs, pipePairs := 4000, 512
	if quick {
		serialPairs, pipePairs = 200, 8
	}

	scenarios := []struct {
		sc    scenario
		pairs int
	}{
		{scenario{name: "locksrv/v2/serial/uncontended/shards=1", mode: "serial", shards: 1, clients: clients, workers: 1}, serialPairs},
		{scenario{name: "locksrv/v2/pipelined/uncontended/shards=1", mode: "pipelined", shards: 1, clients: clients, workers: inflight}, pipePairs},
		{scenario{name: "locksrv/v2/pipelined/uncontended/shards=16", mode: "pipelined", shards: 16, clients: clients, workers: inflight}, pipePairs},
		{scenario{name: "locksrv/v2/batched/uncontended/shards=16", mode: "batched", shards: 16, clients: clients, workers: 1, batch: batch}, serialPairs},
		{scenario{name: "locksrv/v2/serial/contended/shards=1", mode: "serial", shards: 1, clients: clients, workers: 1, pool: pool}, serialPairs},
		{scenario{name: "locksrv/v2/pipelined/contended/shards=1", mode: "pipelined", shards: 1, clients: clients, workers: inflight, pool: pool}, pipePairs},
		{scenario{name: "locksrv/v2/pipelined/contended/shards=16", mode: "pipelined", shards: 16, clients: clients, workers: inflight, pool: pool}, pipePairs},
	}

	rep := lsReport{
		Schema:     "granulock-bench-locksrv/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}

	for _, s := range scenarios {
		if benchFilter != "" && !strings.Contains(s.sc.name, benchFilter) {
			continue
		}
		fmt.Fprintln(os.Stderr, "bench: "+s.sc.name)
		e, err := runScenario(s.sc, s.pairs)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}

	// Cluster-scaling curve over the fixed-RTT transport (see cluster.go
	// for why the delay is there), plus the routing-overhead baseline.
	clusterPairs := 300
	if quick {
		clusterPairs = 20
	}
	clusterRuns := []struct {
		name  string
		nodes int // 0: direct (non-cluster) baseline
	}{
		{"locksrv/cluster/rtt/direct-v2", 0},
		{"locksrv/cluster/rtt/nodes=1", 1},
		{"locksrv/cluster/rtt/nodes=2", 2},
		{"locksrv/cluster/rtt/nodes=4", 4},
	}
	for _, cr := range clusterRuns {
		if benchFilter != "" && !strings.Contains(cr.name, benchFilter) {
			continue
		}
		fmt.Fprintln(os.Stderr, "bench: "+cr.name)
		var e lsEntry
		var err error
		if cr.nodes == 0 {
			e, err = runDirectDelayScenario(cr.name, clusterPairs)
		} else {
			e, err = runClusterScenario(cr.name, cr.nodes, clusterPairs)
		}
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}

	micro := []func() lsEntry{
		func() lsEntry { return lockmgrBench("lockmgr/claim-1g/shards=1", 1, 1) },
		func() lsEntry { return lockmgrBench("lockmgr/claim-1g/shards=16", 16, 1) },
		func() lsEntry { return lockmgrBench("lockmgr/claim-8g/shards=16", 16, 8) },
		func() lsEntry { return lockmgrContendedBench("lockmgr/contended/shards=1", 1) },
		func() lsEntry { return lockmgrContendedBench("lockmgr/contended/shards=16", 16) },
	}
	names := []string{
		"lockmgr/claim-1g/shards=1", "lockmgr/claim-1g/shards=16", "lockmgr/claim-8g/shards=16",
		"lockmgr/contended/shards=1", "lockmgr/contended/shards=16",
	}
	for i, f := range micro {
		if benchFilter != "" && !strings.Contains(names[i], benchFilter) {
			continue
		}
		if i == 0 {
			fmt.Fprintln(os.Stderr, "bench: lockmgr microbenchmarks")
		}
		rep.Benchmarks = append(rep.Benchmarks, f())
	}

	comparisons := []struct {
		name, num, den string
		target         float64
	}{
		{"v2 pipelined+sharded vs serial (uncontended headline)",
			"locksrv/v2/pipelined/uncontended/shards=16", "locksrv/v2/serial/uncontended/shards=1", 4},
		{"pipelining alone (v2 pipelined vs v2 serial)",
			"locksrv/v2/pipelined/uncontended/shards=1", "locksrv/v2/serial/uncontended/shards=1", 0},
		{"sharding, uncontended (16 vs 1 stripes)",
			"locksrv/v2/pipelined/uncontended/shards=16", "locksrv/v2/pipelined/uncontended/shards=1", 0},
		{"batching vs pipelining",
			"locksrv/v2/batched/uncontended/shards=16", "locksrv/v2/pipelined/uncontended/shards=16", 0},
		{"v2 pipelined+sharded vs serial (contended, honest)",
			"locksrv/v2/pipelined/contended/shards=16", "locksrv/v2/serial/contended/shards=1", 0},
		{"sharding, contended (16 vs 1 stripes)",
			"locksrv/v2/pipelined/contended/shards=16", "locksrv/v2/pipelined/contended/shards=1", 0},
		{"cluster scaling, RTT-bound (2 vs 1 nodes)",
			"locksrv/cluster/rtt/nodes=2", "locksrv/cluster/rtt/nodes=1", 1.8},
		{"cluster scaling, RTT-bound (4 vs 1 nodes)",
			"locksrv/cluster/rtt/nodes=4", "locksrv/cluster/rtt/nodes=1", 0},
		{"cluster routing overhead (1-node cluster vs direct v2)",
			"locksrv/cluster/rtt/nodes=1", "locksrv/cluster/rtt/direct-v2", 0},
	}
	for _, c := range comparisons {
		if benchFilter != "" {
			break
		}
		cmp, err := compare(rep.Benchmarks, c.name, c.num, c.den, c.target)
		if err != nil {
			return nil, err
		}
		rep.Comparisons = append(rep.Comparisons, cmp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')

	for _, e := range rep.Benchmarks {
		fmt.Printf("%-46s %12.1f ns/op %14.0f ops/sec\n", e.Name, e.NsPerOp, e.OpsPerSec)
	}
	for _, c := range rep.Comparisons {
		mark := ""
		if c.Target > 0 {
			if c.Pass {
				mark = fmt.Sprintf("  PASS (target %.3gx)", c.Target)
			} else {
				mark = fmt.Sprintf("  FAIL (target %.3gx)", c.Target)
			}
		}
		fmt.Printf("%-54s %6.2fx%s\n", c.Name, c.Speedup, mark)
	}
	return data, nil
}
