package locksrv

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/rng"
)

// startServerOpts launches a server with options on an ephemeral port.
func startServerOpts(t *testing.T, opts ...ServerOption) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, nil, opts...)
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

// TestAcquireTimeoutUnderContention pins the acceptance criterion: an
// acquire with timeout_ms set against a held granule fails with a
// timeout error within (roughly) the deadline, and leaves the table
// clean — no parked waiter, nothing held by the victim.
func TestAcquireTimeoutUnderContention(t *testing.T) {
	addr, srv := startServerOpts(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	start := time.Now()
	err := waiter.AcquireAllTimeout(2, xreq(5), 50*time.Millisecond)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > time.Second {
		t.Fatalf("timeout after %v, want ~50ms", elapsed)
	}
	if n := srv.Table().WaitersCount(); n != 0 {
		t.Fatalf("%d waiters parked after timeout", n)
	}
	if n := srv.Table().HeldBy(2); n != 0 {
		t.Fatalf("timed-out txn holds %d granules", n)
	}
	st := srv.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts counter %d, want 1", st.Timeouts)
	}
	// The session survives a timeout: the same client retries and wins
	// after the holder releases.
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if err := waiter.AcquireAllTimeout(2, xreq(5), 500*time.Millisecond); err != nil {
		t.Fatalf("retry after timeout: %v", err)
	}
}

// TestZeroTimeoutWaitsIndefinitely: timeout_ms=0 is "no deadline".
func TestZeroTimeoutWaitsIndefinitely(t *testing.T) {
	addr, _ := startServerOpts(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(5)) }()
	select {
	case err := <-done:
		t.Fatalf("unblocked early: %v", err)
	case <-time.After(60 * time.Millisecond):
	}
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestForeignReleaseRejected pins the cross-session release fix: a
// release for a transaction granted on another session must be refused
// and must not touch the owner's locks.
func TestForeignReleaseRejected(t *testing.T) {
	addr, srv := startServerOpts(t)
	owner := dial(t, addr)
	thief := dial(t, addr)
	if err := owner.AcquireAll(1, xreq(5, 6)); err != nil {
		t.Fatal(err)
	}
	err := thief.ReleaseAll(1)
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign release: want ErrNotOwner, got %v", err)
	}
	if n := srv.Table().HeldBy(1); n != 2 {
		t.Fatalf("owner's locks disturbed: holds %d, want 2", n)
	}
	st := srv.Stats()
	if st.ForeignReleases != 1 {
		t.Fatalf("foreign_releases %d, want 1", st.ForeignReleases)
	}
	// The owner itself may still release, and afterwards the txn id is
	// free for anyone (idempotent unknown-txn release stays OK).
	if err := owner.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if err := thief.ReleaseAll(1); err != nil {
		t.Fatalf("release of unowned txn should be a no-op: %v", err)
	}
}

// ownerOf returns the session currently recorded as owning txn.
func ownerOf(srv *Server, txn int64) *session {
	owner, _ := srv.ownerOf(lockmgr.TxnID(txn))
	return owner
}

// TestReleaseRetryWhileOwnerTearsDown pins the transport-fault release
// retry: the send of a release dies mid-flight, the client reconnects
// and resends on a fresh session while owners[txn] still maps to the
// condemned predecessor whose teardown hasn't run. The retry must wait
// out the teardown and complete idempotently, not fail terminally with
// not_owner.
func TestReleaseRetryWhileOwnerTearsDown(t *testing.T) {
	addr, srv := startServerOpts(t)
	a := dial(t, addr)
	if err := a.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	// Condemn the owning session without yet running its teardown: the
	// exact window a retried release races.
	owner := ownerOf(srv, 1)
	if owner == nil {
		t.Fatal("no owner recorded for txn 1")
	}
	owner.closing.Store(true)
	b := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- b.ReleaseAll(1) }()
	select {
	case err := <-done:
		t.Fatalf("release resolved before the owner's teardown: %v", err)
	case <-time.After(30 * time.Millisecond):
		// Parked, as it should be.
	}
	a.Close() // the predecessor's teardown actually runs now
	if err := <-done; err != nil {
		t.Fatalf("retried release after owner teardown: %v", err)
	}
	if st := srv.Stats(); st.ForeignReleases != 0 {
		t.Fatalf("foreign_releases %d, want 0: retry misclassified", st.ForeignReleases)
	}
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
}

// TestReleaseRetryBeatsDisconnectDetection: the harder form of the
// release-retry race — TCP orders nothing across connections, so the
// retry on a fresh session can reach the server before the
// predecessor's disconnect is even detected, while its owners entry
// still looks like a live peer's. The server must wait out the race
// bound instead of terminally rejecting with not_owner.
func TestReleaseRetryBeatsDisconnectDetection(t *testing.T) {
	addr, srv := startServerOpts(t)
	raw := dialRaw(t, addr)
	if status, _, body := raw.roundTrip(acquireFrame(1, 1, 5)); status != statusOK {
		t.Fatalf("acquire: status %d %q", status, body)
	}
	raw.conn.Close() // predecessor dies without releasing
	// Retry the release immediately on a fresh session, racing the
	// server's detection of the disconnect.
	b := dial(t, addr)
	if err := b.ReleaseAll(1); err != nil {
		t.Fatalf("release retry racing disconnect detection: %v", err)
	}
	if st := srv.Stats(); st.ForeignReleases != 0 {
		t.Fatalf("foreign_releases %d, want 0: retry misclassified", st.ForeignReleases)
	}
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
}

// TestAcquireRetryWhileOwnerTearsDown: same window for acquire — the
// retried claim arrives while owners[txn] still maps to the condemned
// predecessor. It must wait for the predecessor's force-release and
// then be granted, and the grant must survive the predecessor's
// teardown (teardown may not strip a successor's locks).
func TestAcquireRetryWhileOwnerTearsDown(t *testing.T) {
	addr, srv := startServerOpts(t)
	a := dial(t, addr)
	if err := a.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(srv, 1)
	if owner == nil {
		t.Fatal("no owner recorded for txn 1")
	}
	owner.closing.Store(true)
	b := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- b.AcquireAllTimeout(1, xreq(5), 2*time.Second) }()
	select {
	case err := <-done:
		t.Fatalf("retried claim resolved before the owner's teardown: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	a.Close() // teardown force-releases the predecessor's grant
	if err := <-done; err != nil {
		t.Fatalf("retried acquire after owner teardown: %v", err)
	}
	// The successor's grant is intact after the predecessor's teardown.
	waitFor(t, func() bool { return ownerOf(srv, 1) != nil && ownerOf(srv, 1) != owner })
	if n := srv.Table().HeldBy(1); n != 1 {
		t.Fatalf("successor holds %d granules after predecessor teardown, want 1", n)
	}
	if err := b.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d residual holders", n)
	}
}

// TestSubMillisecondTimeoutStillTimesOut: a positive timeout below the
// wire's 1ms resolution must round up to 1ms, not truncate to 0 (which
// the protocol reads as "wait indefinitely").
func TestSubMillisecondTimeoutStillTimesOut(t *testing.T) {
	addr, _ := startServerOpts(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAllTimeout(2, xreq(5), 100*time.Microsecond) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("want ErrTimeout, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sub-millisecond timeout degraded to an unbounded wait")
	}
}

// TestMidAcquireDisconnectFreesQueueSlot: a client that dies while its
// claim is parked must not leave the claim in the queue (a stuck claim
// would block strict-FIFO tables and leak memory).
func TestMidAcquireDisconnectFreesQueueSlot(t *testing.T) {
	addr, srv := startServerOpts(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	doomed := dial(t, addr)
	go doomed.AcquireAll(2, xreq(5)) // parks
	waitFor(t, func() bool { return srv.Table().WaitersCount() == 1 })
	doomed.Close() // dies mid-acquire
	waitFor(t, func() bool { return srv.Table().WaitersCount() == 0 })
	if n := srv.Table().HeldBy(2); n != 0 {
		t.Fatalf("dead waiter holds %d granules", n)
	}
	// The holder's session is untouched.
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// TestIdleSessionReaped: a session that goes quiet past the idle
// timeout is closed and its locks released.
func TestIdleSessionReaped(t *testing.T) {
	addr, srv := startServerOpts(t, WithIdleTimeout(50*time.Millisecond))
	idle := dial(t, addr)
	if err := idle.AcquireAll(1, xreq(3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
	st := srv.Stats()
	if st.IdleReaps != 1 {
		t.Fatalf("idle_reaps %d, want 1", st.IdleReaps)
	}
	if st.ForceReleases != 1 {
		t.Fatalf("force_releases %d, want 1", st.ForceReleases)
	}
}

// TestGracefulDrainLetsInflightFinish: during the grace period a
// blocked acquire may still be granted by a concurrent release and must
// complete normally, not be chopped off.
func TestGracefulDrainLetsInflightFinish(t *testing.T) {
	addr, srv := startServerOpts(t, WithGrace(2*time.Second))
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(9)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	granted := make(chan error, 1)
	go func() { granted <- waiter.AcquireAll(2, xreq(9)) }()
	waitFor(t, func() bool { return srv.Table().WaitersCount() == 1 })

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(30 * time.Millisecond) // drain has begun; waiter still parked
	if err := holder.ReleaseAll(1); err == nil {
		// The release may or may not get through depending on whether
		// the holder's read-side shutdown won the race; either way the
		// holder's teardown releases granule 9.
		_ = err
	}
	if err := <-granted; err != nil {
		t.Fatalf("in-flight acquire chopped during grace: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d residual holders after drain", n)
	}
}

// TestDrainForceReleasesAfterGrace: a waiter that can never be granted
// is force-cancelled when the grace expires, with code "closed", and
// the table ends clean.
func TestDrainForceReleasesAfterGrace(t *testing.T) {
	addr, srv := startServerOpts(t, WithGrace(50*time.Millisecond))
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(9)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	granted := make(chan error, 1)
	go func() { granted <- waiter.AcquireAll(2, xreq(9)) }()
	waitFor(t, func() bool { return srv.Table().WaitersCount() == 1 })
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("drain took %v with 50ms grace", e)
	}
	<-granted // closed-error or transport error; must not hang
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d residual holders after forced drain", n)
	}
	if n := srv.Table().WaitersCount(); n != 0 {
		t.Fatalf("%d residual waiters after forced drain", n)
	}
}

// TestDrainUnderConcurrentLoad drains while many workers are mid-flight
// and checks the invariant the whole PR exists for: after Close, no
// session's locks survive.
func TestDrainUnderConcurrentLoad(t *testing.T) {
	addr, srv := startServerOpts(t, WithGrace(200*time.Millisecond))
	var txnSeq atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialV2(addr, WithRetries(0))
			if err != nil {
				return // server may already be draining
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				txn := txnSeq.Add(1)
				if err := c.AcquireAllTimeout(txn, xreq(int64(w%4), int64(4+w%3)), 100*time.Millisecond); err != nil {
					if errors.Is(err, ErrTimeout) {
						continue
					}
					return // drain reached this session
				}
				c.ReleaseAll(txn)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let load build
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d residual holders after drain under load", n)
	}
	if n := srv.Table().WaitersCount(); n != 0 {
		t.Fatalf("%d residual waiters after drain under load", n)
	}
}

// TestStatsSchema: the extended stats op reports sessions, outcome
// counters and wait quantiles.
func TestStatsSchema(t *testing.T) {
	addr, _ := startServerOpts(t)
	a := dial(t, addr)
	b := dial(t, addr)
	if err := a.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	if err := b.AcquireAllTimeout(2, xreq(5), 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	table, srvStats, err := a.FullStats()
	if err != nil {
		t.Fatal(err)
	}
	if table.Grants < 1 {
		t.Fatalf("table grants %d", table.Grants)
	}
	if srvStats.Sessions != 2 {
		t.Fatalf("sessions %d, want 2", srvStats.Sessions)
	}
	if srvStats.Grants != 1 || srvStats.Timeouts != 1 {
		t.Fatalf("grants/timeouts %d/%d, want 1/1", srvStats.Grants, srvStats.Timeouts)
	}
	if srvStats.Holders != 1 || srvStats.LockedGranules != 1 {
		t.Fatalf("holders/granules %d/%d, want 1/1", srvStats.Holders, srvStats.LockedGranules)
	}
	if srvStats.WaitSamples != 2 {
		t.Fatalf("wait samples %d, want 2", srvStats.WaitSamples)
	}
	// The timed-out acquire waited ~30ms; P99 must reflect it.
	if srvStats.WaitP99MS < 20 {
		t.Fatalf("wait P99 %.2fms, want >= 20ms", srvStats.WaitP99MS)
	}
}

// TestClientReconnectsThroughFaults: a client behind a dropping, slow
// transport completes every transaction via reconnect + backoff, and
// the server's table never strands a granule.
func TestClientReconnectsThroughFaults(t *testing.T) {
	addr, srv := startServerOpts(t)
	var fs FaultStats
	c, err := DialV2(addr,
		WithDialer(FaultyDialer(FaultConfig{
			DropProb:      0.05,
			DelayProb:     0.2,
			MaxDelay:      2 * time.Millisecond,
			PartialWrites: true,
		}, 42, &fs)),
		WithRetries(50),
		WithBackoff(time.Millisecond, 10*time.Millisecond),
		WithJitterSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for txn := int64(1); txn <= 100; txn++ {
		if err := c.AcquireAll(txn, xreq(txn%7)); err != nil {
			t.Fatalf("txn %d acquire: %v", txn, err)
		}
		if err := c.ReleaseAll(txn); err != nil {
			t.Fatalf("txn %d release: %v", txn, err)
		}
	}
	if fs.Drops.Load() == 0 {
		t.Fatal("fault schedule injected no drops; test proves nothing")
	}
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected despite drops")
	}
	// Whatever was granted mid-drop was force-released server-side.
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
}

// TestRetryBudgetExhausted: with the server gone, the client gives up
// after its budget and surfaces the transport error.
func TestRetryBudgetExhausted(t *testing.T) {
	addr, srv := startServerOpts(t)
	c := dial(t, addr)
	srv.Close()
	var slept []time.Duration
	c.cfg.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.cfg.retries = 3
	err := c.AcquireAll(1, xreq(1))
	if err == nil {
		t.Fatal("acquire succeeded against a closed server")
	}
	if len(slept) != 3 {
		t.Fatalf("%d backoff sleeps, want 3", len(slept))
	}
	// Capped exponential with jitter in [d/2, d): each sleep lies in
	// the envelope for its attempt.
	base, max := c.cfg.backoffBase, c.cfg.backoffMax
	for i, d := range slept {
		want := base << uint(i)
		if want > max {
			want = max
		}
		if d < want/2 || d >= want+1 {
			t.Fatalf("sleep %d = %v outside [%v, %v)", i, d, want/2, want)
		}
	}
}

// TestBackoffDeterminism: the jitter stream is deterministic per seed.
func TestBackoffDeterminism(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		c := &ClientV2{cfg: clientCfg{backoffBase: 10 * time.Millisecond, backoffMax: time.Second, jitter: rng.New(seed)}}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoffDelay(i)
		}
		return out
	}
	a, b := mk(3), mk(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	diff := false
	for i, d := range mk(4) {
		if d != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical jitter")
	}
}

// TestFaultConnDeterminism: the same seed replays the same fault
// schedule; partial writes still deliver every byte.
func TestFaultConnDeterminism(t *testing.T) {
	run := func(seed uint64) (string, int64) {
		a, b := net.Pipe()
		defer b.Close()
		var fs FaultStats
		fc := NewFaultConn(a, FaultConfig{PartialWrites: true}, rng.New(seed), &fs)
		got := make(chan string, 1)
		go func() {
			buf := make([]byte, 64)
			total := 0
			for total < 11 {
				n, err := b.Read(buf[total:])
				total += n
				if err != nil {
					break
				}
			}
			got <- string(buf[:total])
		}()
		if _, err := fc.Write([]byte("hello world")); err != nil {
			t.Fatal(err)
		}
		fc.Close()
		return <-got, fs.PartialWrites.Load()
	}
	msg, parts := run(9)
	if msg != "hello world" {
		t.Fatalf("partial writes corrupted payload: %q", msg)
	}
	if parts != 1 {
		t.Fatalf("partial-write counter %d, want 1", parts)
	}
	msg2, _ := run(9)
	if msg2 != msg {
		t.Fatal("same seed, different delivery")
	}
}

// TestFaultConnTornWriteReleasesServerSide: a torn frame followed by a
// dead connection must end the session and release its grants — the
// strongest mid-acquire disconnect case.
func TestFaultConnTornWriteReleasesServerSide(t *testing.T) {
	addr, srv := startServerOpts(t)
	// Raw conn so the test controls exactly what goes on the wire.
	raw := dialRaw(t, addr)
	if status, _, body := raw.roundTrip(acquireFrame(1, 1, 5)); status != statusOK {
		t.Fatalf("acquire: status %d %q", status, body)
	}
	if srv.Table().HeldBy(1) != 1 {
		t.Fatal("acquire not granted")
	}
	// Torn frame: a length prefix and half a header, then death.
	if _, err := raw.conn.Write(acquireFrame(2, 1, 5)[:9]); err != nil {
		t.Fatal(err)
	}
	raw.conn.Close()
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
	st := srv.Stats()
	if st.ForceReleases != 1 {
		t.Fatalf("force_releases %d, want 1", st.ForceReleases)
	}
}

// TestTeardownOnSharedStripes: the owner record is one for all
// sessions, and a teardown finds its session's transactions by walking
// every stripe. Two sessions own transactions in each of the stripes;
// closing one force-releases all of its own and none of the other's,
// which keep their locks and their owner.
func TestTeardownOnSharedStripes(t *testing.T) {
	addr, srv := startServerOpts(t)
	claims := func(base int64) []Claim {
		var out []Claim
		stripes := make(map[*ownerStripe]bool)
		for txn := base; len(stripes) < ownerStripes && txn < base+16*ownerStripes; txn++ {
			stripes[srv.ownerStripe(lockmgr.TxnID(txn))] = true
			out = append(out, Claim{Txn: txn, Reqs: xreq(txn)})
		}
		if len(stripes) != ownerStripes {
			t.Fatalf("transactions from %d cover %d of %d stripes", base, len(stripes), ownerStripes)
		}
		return out
	}
	closing, staying := dial(t, addr), dial(t, addr)
	gone, kept := claims(1), claims(1_000_001)
	for _, side := range []struct {
		c      *ClientV2
		claims []Claim
	}{{closing, gone}, {staying, kept}} {
		errs, err := side.c.AcquireN(side.claims)
		if err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("claim of txn %d: %v", side.claims[i].Txn, err)
			}
		}
	}
	keeper := ownerOf(srv, kept[0].Txn)
	if keeper == nil || keeper == ownerOf(srv, gone[0].Txn) {
		t.Fatal("the two sessions' transactions are not recorded on two sessions")
	}

	closing.Close()
	waitFor(t, func() bool { return srv.Stats().ForceReleases != 0 })
	if n := srv.Stats().ForceReleases; n != int64(len(gone)) {
		t.Fatalf("force_releases %d, want the closed session's %d", n, len(gone))
	}
	for _, cl := range gone {
		if n, owner := srv.Table().HeldBy(lockmgr.TxnID(cl.Txn)), ownerOf(srv, cl.Txn); n != 0 || owner != nil {
			t.Fatalf("closed session's txn %d holds %d granules, owner %p", cl.Txn, n, owner)
		}
	}
	for _, cl := range kept {
		if n, owner := srv.Table().HeldBy(lockmgr.TxnID(cl.Txn)), ownerOf(srv, cl.Txn); n != 1 || owner != keeper {
			t.Fatalf("other session's txn %d holds %d granules, owner %p, want 1 and %p", cl.Txn, n, owner, keeper)
		}
	}
}

// waitFor polls cond until true or a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
