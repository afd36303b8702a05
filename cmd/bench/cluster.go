// Cluster-scaling scenarios for the locksrv suite: throughput of the
// consistent-hash partitioned lock cluster at 1, 2 and 4 nodes, driven
// by cluster-aware v2 clients over a transport with an injected fixed
// round-trip time.
//
// Honesty notes. On this repository's 1-CPU bench machine a raw
// loopback cluster curve is flat: every node shares the one core, so
// adding nodes adds no capacity and the measurement would say nothing.
// What partitioning actually buys a deployment is more serial request
// streams served at a fixed per-request latency — each node terminates
// its own partition's RTTs. The scenarios model that directly: every
// connection's writes pay a fixed ~400us delay (~0.8ms per
// acquire/release pair, a LAN-ish RTT), each node is given the same
// fixed fleet of serial client streams (admission capacity), and the
// reported scaling is streams-times-nodes at constant per-stream
// latency. The delay dominates wall-clock, so the curve measures
// protocol and routing behavior, not loopback CPU scheduling; CPU per
// message is unchanged and is covered by the non-delayed scenarios in
// locksrv.go. A fourth scenario runs the same delayed workload through
// a plain (non-cluster) v2 client against a standalone server, so the
// routing layer's overhead at 1 node is its own recorded number rather
// than a hidden tax inside the curve.
package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
)

// benchRTTDelay is the injected one-way write delay; an acquire or
// release round trip costs one delay, an acquire+release pair two. It
// is deliberately WAN-ish rather than LAN-ish: timer wake-up latency
// on a loaded single-CPU runner is around a millisecond, so a
// sub-millisecond delay would measure the Go timer wheel, not the
// protocol.
const benchRTTDelay = 8 * time.Millisecond

// benchStreamsPerNode is the serial client-stream fleet each node is
// given — the admission capacity a partition terminates.
const benchStreamsPerNode = 8

// delayConn injects a fixed delay ahead of every write, modelling the
// client->server propagation of a network with a real RTT. Responses
// ride the same TCP connection, so one request/response exchange pays
// one delay end to end.
type delayConn struct {
	net.Conn
	d time.Duration
}

func (c delayConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

// delayDialer dials TCP and wraps the connection in a delayConn.
func delayDialer(d time.Duration) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return delayConn{Conn: conn, d: d}, nil
	}
}

// startBenchCluster stands up an n-node cluster with heartbeats off —
// the bench wants steady-state routing, not failure detection — and
// returns the member addresses, the servers and their tables.
func startBenchCluster(n int) ([]string, []*locksrv.Server, []*lockmgr.Table, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	tables := make([]*lockmgr.Table, n)
	servers := make([]*locksrv.Server, n)
	for i := range servers {
		tables[i] = lockmgr.NewTable(lockmgr.WithShards(16))
		servers[i] = locksrv.NewServer(listeners[i], tables[i],
			locksrv.WithCluster(locksrv.ClusterConfig{
				Nodes: addrs,
				Self:  i,
				// HeartbeatEvery zero: no failure monitor.
			}))
		go servers[i].Serve()
	}
	return addrs, servers, tables, nil
}

// runClusterScenario measures an n-node cluster serving
// benchStreamsPerNode*n serial streams of single-granule exclusive
// acquire/release pairs over the delayed transport.
func runClusterScenario(name string, nodes, pairsPerStream int) (lsEntry, error) {
	addrs, servers, _, err := startBenchCluster(nodes)
	if err != nil {
		return lsEntry{}, err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	streams := benchStreamsPerNode * nodes
	clients := make([]*locksrv.ClusterClient, streams)
	for i := range clients {
		cc, err := locksrv.DialCluster(addrs,
			locksrv.WithDialer(delayDialer(benchRTTDelay)),
			locksrv.WithLeaseInterval(0)) // no keepalive noise in the measurement
		if err != nil {
			return lsEntry{}, err
		}
		defer cc.Close()
		clients[i] = cc
	}

	run := func(gw int, cc *locksrv.ClusterClient) error {
		for op := 0; op < pairsPerStream; op++ {
			txn := txnSeq.Add(1)
			req := []lockmgr.Request{{Granule: lockmgr.Granule(gw*1024 + op%512), Mode: lockmgr.ModeExclusive}}
			if err := cc.AcquireAll(txn, req); err != nil {
				return err
			}
			if err := cc.ReleaseAll(txn); err != nil {
				return err
			}
		}
		return nil
	}

	errCh := make(chan error, streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i, cc := range clients {
		i, cc := i, cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(i, cc); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return lsEntry{}, fmt.Errorf("%s: %w", name, err)
	default:
	}

	pairs := int64(streams) * int64(pairsPerStream)
	ns := float64(elapsed.Nanoseconds())
	return lsEntry{
		Name:      name,
		Mode:      "cluster",
		Shards:    16,
		Clients:   streams,
		Workers:   1,
		Nodes:     nodes,
		RTTMs:     float64(2*benchRTTDelay) / float64(time.Millisecond),
		Ops:       pairs,
		NsPerOp:   ns / float64(pairs),
		OpsPerSec: float64(pairs) / ns * 1e9,
	}, nil
}

// runDirectDelayScenario is the routing-overhead baseline: the same
// delayed workload as a 1-node cluster scenario, but through plain v2
// clients against a standalone (non-cluster) server, so the difference
// to nodes=1 is exactly the cluster client's routing layer.
func runDirectDelayScenario(name string, pairsPerStream int) (lsEntry, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return lsEntry{}, err
	}
	srv := locksrv.NewServer(lis, lockmgr.NewTable(lockmgr.WithShards(16)))
	go srv.Serve()
	defer srv.Close()
	addr := lis.Addr().String()

	const streams = benchStreamsPerNode
	clients := make([]*locksrv.ClientV2, streams)
	for i := range clients {
		c, err := locksrv.DialV2(addr, locksrv.WithDialer(delayDialer(benchRTTDelay)))
		if err != nil {
			return lsEntry{}, err
		}
		defer c.Close()
		clients[i] = c
	}

	errCh := make(chan error, streams)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < pairsPerStream; op++ {
				txn := txnSeq.Add(1)
				req := []lockmgr.Request{{Granule: lockmgr.Granule(i*1024 + op%512), Mode: lockmgr.ModeExclusive}}
				if err := c.AcquireAll(txn, req); err != nil {
					errCh <- err
					return
				}
				if err := c.ReleaseAll(txn); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return lsEntry{}, fmt.Errorf("%s: %w", name, err)
	default:
	}

	pairs := int64(streams) * int64(pairsPerStream)
	ns := float64(elapsed.Nanoseconds())
	return lsEntry{
		Name:      name,
		Mode:      "serial",
		Shards:    16,
		Clients:   streams,
		Workers:   1,
		RTTMs:     float64(2*benchRTTDelay) / float64(time.Millisecond),
		Ops:       pairs,
		NsPerOp:   ns / float64(pairs),
		OpsPerSec: float64(pairs) / ns * 1e9,
	}, nil
}
