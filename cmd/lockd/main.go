// Command lockd runs the network lock manager: a central granule lock
// service for shared-nothing workers in separate processes.
//
// Usage:
//
//	lockd [-addr 127.0.0.1:7654] [-grace 5s] [-idle 5m] [-stats 30s] [-admin 127.0.0.1:9654]
//
// The protocol is length-prefixed binary frames, pipelined (see
// internal/locksrv and docs/LOCKSRV.md); Go clients use locksrv.DialV2
// or, against a -cluster deployment, locksrv.DialCluster.
//
// SIGTERM or SIGINT drains gracefully: lockd stops accepting, gives
// in-flight requests the -grace period to finish, force-releases
// whatever remains, and exits. Sessions idle longer than -idle are
// reaped (their locks released) as if they had disconnected. Every
// -stats interval lockd logs session/waiter gauges, acquire outcome
// counters and wait-time quantiles.
//
// -admin starts an HTTP admin listener on a separate address serving
// /metrics (Prometheus text format), /healthz (JSON liveness probe,
// flips to "draining" during shutdown) and /debug/pprof/. Empty (the
// default) disables it.
//
// -waldir enables the durable grant journal: every grant is made
// durable in a group-commit write-ahead log before it is acknowledged,
// and every release (explicit or forced) is journaled after it. On
// restart lockd replays the previous journal, reports which
// transactions were still holding locks when the process died (their
// sessions are gone, so nothing is re-granted), and starts a fresh
// journal epoch.
//
// -cluster runs the node as one member of a consistent-hash
// partitioned cluster: a comma-separated ordered list of every
// member's address (identical on all members), with -clusterself
// giving this node's index in that list. The node serves only the
// granules its ring partition owns, redirects the rest, heartbeats
// its predecessor and adopts the predecessor's partition through a
// lease-recovery window when it dies (see docs/LOCKSRV.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
	"granulock/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "listen address")
	grace := flag.Duration("grace", 5*time.Second, "drain grace period for in-flight requests on shutdown")
	idle := flag.Duration("idle", 5*time.Minute, "reap sessions idle longer than this (0 disables)")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats logging interval (0 disables)")
	adminAddr := flag.String("admin", "", "HTTP admin listen address for /metrics, /healthz and /debug/pprof/ (empty disables)")
	cluster := flag.String("cluster", "", "comma-separated ordered addresses of every cluster member (empty: standalone)")
	clusterSelf := flag.Int("clusterself", 0, "this node's index in the -cluster list")
	hbEvery := flag.Duration("heartbeat", 250*time.Millisecond, "cluster predecessor heartbeat interval")
	recoveryGrace := flag.Duration("recovery", 2*time.Second, "cluster lease-recovery window after adopting a dead node's partition")
	walDir := flag.String("waldir", "", "directory for the durable grant journal (empty disables); on restart the previous journal is replayed for a summary, then truncated")
	flag.Parse()

	logger := log.New(os.Stderr, "lockd: ", log.LstdFlags|log.Lmicroseconds)
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	reg := obs.NewRegistry()
	table := lockmgrTable(reg)
	opts := []locksrv.ServerOption{
		locksrv.WithGrace(*grace),
		locksrv.WithIdleTimeout(*idle),
		locksrv.WithMetrics(reg),
	}
	var journal *walJournal
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			logger.Fatal(err)
		}
		path := filepath.Join(*walDir, "grants.log")
		j, sum, err := openJournal(path)
		if err != nil {
			logger.Fatal(err)
		}
		journal = j
		if sum.OutstandingTxns > 0 {
			logger.Printf("journal: %d transactions held %d granules when the previous process died; their sessions are gone, locks not re-granted",
				sum.OutstandingTxns, sum.OutstandingGranules)
		}
		logger.Printf("journal: replayed %d records (%d granule grants, %d releases, torn=%v); fresh epoch at %s",
			sum.Records, sum.GrantedGranules, sum.Releases, sum.Torn, path)
		opts = append(opts, locksrv.WithJournal(journal))
	}
	if *cluster != "" {
		nodes := strings.Split(*cluster, ",")
		if *clusterSelf < 0 || *clusterSelf >= len(nodes) {
			logger.Fatalf("-clusterself %d out of range for %d cluster nodes", *clusterSelf, len(nodes))
		}
		opts = append(opts, locksrv.WithCluster(locksrv.ClusterConfig{
			Nodes:          nodes,
			Self:           *clusterSelf,
			HeartbeatEvery: *hbEvery,
			RecoveryGrace:  *recoveryGrace,
		}))
		logger.Printf("cluster node %d of %d", *clusterSelf, len(nodes))
	}
	srv := locksrv.NewServer(lis, table, opts...)
	fmt.Println("lockd listening on", srv.Addr())

	var admin *http.Server
	if *adminAddr != "" {
		alis, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			logger.Fatal(err)
		}
		admin = &http.Server{Handler: newAdminMux(reg, srv)}
		fmt.Println("lockd admin on", alis.Addr())
		go func() {
			if err := admin.Serve(alis); err != nil && err != http.ErrServerClosed {
				logger.Printf("admin: %v", err)
			}
		}()
	}

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					logStats(logger, srv.Stats())
				case <-stop:
					return
				}
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logger.Printf("received %v, draining (grace %v)", sig, *grace)
		if err := srv.Close(); err != nil {
			logger.Printf("drain: %v", err)
		}
	}()

	if err := srv.Serve(); err != nil {
		logger.Fatal(err)
	}
	close(stop)
	if admin != nil {
		admin.Close()
	}
	logStats(logger, srv.Stats())
	if journal != nil {
		if err := journal.Close(); err != nil {
			logger.Printf("journal close: %v", err)
		}
	}
	logger.Printf("drained; exiting")
}

// lockmgrTable builds the served lock table with its granulock_lockmgr_
// families registered alongside the service's granulock_locksrv_ ones,
// so one /metrics scrape covers both layers.
func lockmgrTable(reg *obs.Registry) *lockmgr.Table {
	return lockmgr.NewTable(lockmgr.WithMetrics(reg))
}

// logStats renders one stats line in key=value form.
func logStats(logger *log.Logger, st locksrv.ServerStats) {
	logger.Printf("sessions=%d/%d holders=%d granules=%d waiters=%d grants=%d timeouts=%d cancels=%d force_releases=%d foreign_releases=%d idle_reaps=%d wait_ms_p50=%.2f p90=%.2f p99=%.2f samples=%d",
		st.Sessions, st.SessionsTotal, st.Holders, st.LockedGranules, st.Waiters,
		st.Grants, st.Timeouts, st.Cancels, st.ForceReleases, st.ForeignReleases,
		st.IdleReaps, st.WaitP50MS, st.WaitP90MS, st.WaitP99MS, st.WaitSamples)
	if c := st.Cluster; c != nil {
		logger.Printf("cluster takeovers=%d reasserts=%d lease_expired=%d redirects=%d parked=%d",
			c.Takeovers, c.Reasserts, c.LeaseExpired, c.Redirects, c.ParkedAcquires)
	}
}
