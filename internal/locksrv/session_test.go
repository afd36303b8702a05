package locksrv

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"granulock/internal/lockmgr"
	"granulock/internal/rng"
)

// The run-to-completion session: requests executed on the reader,
// parked claims as continuations, replies written by whoever produced
// them. These tests pin its lifecycle under -race (CI also runs the
// package at -cpu 1,2,4: continuations run on foreign goroutines).

// frame encodes one request frame.
func frame(op byte, id uint64, body func(fb *frameBuf)) []byte {
	fb := getFrame()
	defer putFrame(fb)
	fb.start(op, id)
	if body != nil {
		body(fb)
	}
	fb.finish()
	return bytes.Clone(fb.bytes())
}

func timedAcquireFrame(id uint64, txn int64, timeoutMS int64, granules ...int64) []byte {
	return frame(opAcquire, id, func(fb *frameBuf) { appendAcquireBody(fb, txn, xreq(granules...), timeoutMS) })
}

func releaseFrame(id uint64, txn int64) []byte {
	return frame(opRelease, id, func(fb *frameBuf) { fb.appendU64(uint64(txn)) })
}

// readReply reads one response frame within five seconds.
func (r *rawSession) readReply() (status byte, id uint64, body string) {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fb, status, id, b, err := readFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	defer putFrame(fb)
	return status, id, string(b)
}

// replies decodes every frame in b.
func replies(t *testing.T, b []byte) (statuses []byte, ids []uint64) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	for {
		fb, status, id, _, err := readFrame(br)
		if err == io.EOF {
			return statuses, ids
		}
		if err != nil {
			t.Fatalf("torn reply stream: %v", err)
		}
		putFrame(fb)
		statuses, ids = append(statuses, status), append(ids, id)
	}
}

// capParked bounds srv's free list of parked-acquire records, so that a
// record an ending lets go of is the one the next park takes.
func capParked(srv *Server, n int) {
	srv.pfmu.Lock()
	srv.pfreeMax = n
	srv.pfmu.Unlock()
}

// awaitAnswered waits until every request of sess is accounted for.
func awaitAnswered(t *testing.T, seed uint64, sess *session) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); sess.pending.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: request never answered (pending %d)", seed, sess.pending.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestParkedClaimEndsExactlyOnce races everything that can end one
// parked claim — the release that grants it, its deadline, the end of
// its session, and a disconnect (the end of a session whose connection
// is already dead) — in an order and at offsets drawn from a seed, and
// requires exactly one ending: one reply (none into a dead connection),
// one outcome counter, one wait sample, the request accounted for once,
// and a table that agrees with the outcome.
//
// Every ending also races a reuse: the server keeps one or two records,
// and the moment the claim is answered another session parks a claim on
// another granule, in the record the ending just let go of if it let
// go. Whatever of the first claim is still on its way — a deadline that
// fired while the release was resolving, the loser of the race above —
// must find its own, finished claim or nothing: the next claim stays
// parked through it, and ends once, by its own holder's release.
func TestParkedClaimEndsExactlyOnce(t *testing.T) {
	const (
		granule  = 5
		holder   = lockmgr.TxnID(1)
		waiter   = lockmgr.TxnID(2)
		reqID    = 77
		granule2 = 6
		holder2  = lockmgr.TxnID(3)
		waiter2  = lockmgr.TxnID(4)
		reqID2   = 78
	)
	var outcomes ServerStats
	reused := 0
	for seed := uint64(1); seed <= 200; seed++ {
		src := rng.New(seed)
		srv := NewServer(nil, nil)
		capParked(srv, 1+int(seed%2))
		sess, conn := sinkSession()
		for txn, g := range map[lockmgr.TxnID]int64{holder: granule, holder2: granule2} {
			if ok, err := srv.table.TryAcquireAll(txn, xreq(g)); !ok || err != nil {
				t.Fatalf("seed %d: holder %d: %v %v", seed, txn, ok, err)
			}
		}
		timeoutMS := int64(src.IntRange(1, 3))
		sess.pending.Add(1)
		srv.serve(sess, opAcquire, reqID, timedAcquireFrame(reqID, int64(waiter), timeoutMS, granule)[4+frameHeader:])
		// One waiter — or none any more: on a loaded host the deadline
		// beats even this look.
		first := anyParked(sess)
		if n := srv.table.WaitersCount(); n > 1 {
			t.Fatalf("seed %d: %d waiters after the park", seed, n)
		}
		dead := src.Bernoulli(0.3)
		enders := []func(){
			func() { srv.table.ReleaseAll(holder) },
			func() {
				if dead {
					sess.w.fail(io.EOF)
				}
				srv.cancelParked(sess)
			},
		}
		src.Shuffle(len(enders), func(i, j int) { enders[i], enders[j] = enders[j], enders[i] })
		var wg sync.WaitGroup
		for _, end := range enders {
			delay := time.Duration(src.Intn(int(timeoutMS)*1500)) * time.Microsecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay)
				end()
			}()
		}
		// The next tenant, the moment the first claim is answered — the
		// other ender may still be on its way.
		awaitAnswered(t, seed, sess)
		next, nextConn := sinkSession()
		next.pending.Add(1)
		srv.serve(next, opAcquire, reqID2, timedAcquireFrame(reqID2, int64(waiter2), 60_000, granule2)[4+frameHeader:])
		if second := onlyParked(t, next); second == first {
			reused++
			if first.fired {
				t.Fatalf("seed %d: a record whose timer had fired was used again", seed)
			}
		}
		wg.Wait()
		time.Sleep(time.Duration(timeoutMS)*time.Millisecond + time.Millisecond) // a late deadline must find nothing to do
		if n := sess.pending.Load(); n != 0 {
			t.Fatalf("seed %d: request accounted %d times too often", seed, -n)
		}
		st := srv.Stats()
		if n := st.Grants + st.Timeouts + st.Cancels; n != 1 || st.WaitSamples != 1 {
			t.Fatalf("seed %d: %d grants, %d timeouts, %d cancels, %d wait samples for one ended claim", seed, st.Grants, st.Timeouts, st.Cancels, st.WaitSamples)
		}
		statuses, ids := replies(t, conn.written())
		switch {
		case len(statuses) > 1, len(statuses) == 1 && ids[0] != reqID:
			t.Fatalf("seed %d: replies %v to ids %v", seed, statuses, ids)
		case len(statuses) == 0 && !dead:
			t.Fatalf("seed %d: no reply on a live connection", seed)
		case len(statuses) == 1:
			want := map[byte]int64{statusOK: st.Grants, statusTimeout: st.Timeouts, statusClosed: st.Cancels}
			if want[statuses[0]] != 1 {
				t.Fatalf("seed %d: replied status %d, counted %+v", seed, statuses[0], st)
			}
		}
		held := srv.table.HeldBy(waiter)
		owner, owned := srv.ownerOf(waiter)
		if granted := st.Grants == 1; granted != (held == 1) || granted != (owned && owner == sess) {
			t.Fatalf("seed %d: grants %d, waiter holds %d, owner recorded %v", seed, st.Grants, held, owned)
		}
		sess.pmu.Lock()
		left := len(sess.parked)
		sess.pmu.Unlock()
		if left != 0 {
			t.Fatalf("seed %d: %d claims still registered", seed, left)
		}
		// The next claim sat through all of it, and ends by its own
		// holder's release alone.
		if n, w := next.pending.Load(), srv.table.WaitersCount(); n != 1 || w != 1 || len(nextConn.written()) != 0 {
			t.Fatalf("seed %d: the next claim was ended by the first one's leftovers: pending %d, %d waiters, reply %x", seed, n, w, nextConn.written())
		}
		srv.table.ReleaseAll(holder2)
		awaitAnswered(t, seed, next)
		statuses, ids = replies(t, nextConn.written())
		if end := srv.Stats(); len(statuses) != 1 || statuses[0] != statusOK || ids[0] != reqID2 ||
			end.Grants != st.Grants+1 || end.Timeouts != st.Timeouts || end.Cancels != st.Cancels || end.WaitSamples != 2 || srv.table.HeldBy(waiter2) != 1 {
			t.Fatalf("seed %d: next claim: replies %v to %v, stats %+v", seed, statuses, ids, end)
		}
		outcomes.Grants += st.Grants
		outcomes.Timeouts += st.Timeouts
		outcomes.Cancels += st.Cancels
	}
	if outcomes.Grants == 0 || outcomes.Timeouts == 0 || outcomes.Cancels == 0 {
		t.Fatalf("the race never ended one way: %d grants, %d timeouts, %d cancels", outcomes.Grants, outcomes.Timeouts, outcomes.Cancels)
	}
	if reused == 0 {
		t.Fatal("no ending ever raced a reuse of its record")
	}
	t.Logf("%d grants, %d timeouts, %d cancels; %d of 200 next claims parked in the record just let go of", outcomes.Grants, outcomes.Timeouts, outcomes.Cancels, reused)
}

// anyParked returns an acquire registered as parked on sess, nil if
// there is none.
func anyParked(sess *session) *parkedAcquire {
	sess.pmu.Lock()
	defer sess.pmu.Unlock()
	for pa := range sess.parked {
		return pa
	}
	return nil
}

// onlyParked returns the one acquire registered as parked on sess.
func onlyParked(t *testing.T, sess *session) *parkedAcquire {
	t.Helper()
	pa := anyParked(sess)
	if pa == nil {
		t.Fatal("no claim registered, want 1")
	}
	return pa
}

// lateExpire builds the case the fired-timer rule exists for, step by
// step: a claim's deadline fires while the release that grants it is
// between resolving the claim and delivering the outcome, so the timer
// can no longer be stopped (the test fires it there itself, so no load
// on the host can fire it before the release); the claim is answered; the server, which
// keeps one record, parks the next claim; and only then does the first
// claim's expire get to run. It reports whether the next claim survived
// that. With recycleFired the delivery is redone by hand the way a
// server without the rule would do it — the record goes back to the
// free list although its timer had fired.
func lateExpire(t *testing.T, recycleFired bool) (survived bool) {
	t.Helper()
	const granule = 5
	srv := NewServer(nil, nil)
	capParked(srv, 1)
	sess, conn := sinkSession()
	if ok, err := srv.table.TryAcquireAll(1, xreq(granule)); !ok || err != nil {
		t.Fatal(ok, err)
	}
	parkOne := func(id uint64, txn, timeoutMS int64) *parkedAcquire {
		sess.pending.Add(1)
		srv.serve(sess, opAcquire, id, timedAcquireFrame(id, txn, timeoutMS, granule)[4+frameHeader:])
		return onlyParked(t, sess)
	}
	first := parkOne(1, 2, 60_000)
	resolved := srv.table.ReleaseAllDeferred(1, nil)
	if len(resolved) != 1 {
		t.Fatalf("the release resolved %d claims", len(resolved))
	}
	// The deadline fires now, after the release: the record's timer is
	// swapped for one already due, whose expire finds the claim resolved
	// and leaves before the delivery below stops the timer, too late.
	expired := make(chan struct{})
	sess.pmu.Lock()
	first.timer.Stop()
	first.timer = time.AfterFunc(0, func() {
		first.expire()
		close(expired)
	})
	sess.pmu.Unlock()
	<-expired
	if recycleFired {
		sess.pmu.Lock()
		first.unpark()
		first.fired = false // the mutant: recycle a record whose timer already fired
		sess.pmu.Unlock()
		first.finish(nil, first.claim.Requests())
	} else {
		resolved[0].Deliver()
		if !first.fired {
			t.Fatal("the deadline had not fired by the time the claim was delivered")
		}
	}
	if statuses, _ := replies(t, conn.written()); len(statuses) != 1 || statuses[0] != statusOK {
		t.Fatalf("first claim answered %v", statuses)
	}
	next := parkOne(2, 3, 60_000)
	if reused := next == first; reused != recycleFired {
		t.Fatalf("the next claim parked in the first one's record: %v", reused)
	}
	first.expire() // the late one
	return srv.table.WaitersCount() == 1 && sess.pending.Load() == 1
}

// TestLateExpireSparesTheNextTenant: a record whose deadline timer had
// already fired when it was stopped is not used again, so the late
// expire finds its own, finished claim. The seeded mutant — recycle it
// anyway — is what the check exists to catch: the late expire then
// withdraws the next claim, 60 seconds early.
func TestLateExpireSparesTheNextTenant(t *testing.T) {
	if !lateExpire(t, false) {
		t.Fatal("a late expire ended the claim parked after its own")
	}
	if lateExpire(t, true) {
		t.Fatal("the mutant (recycle a record whose timer already fired) went undetected")
	}
}

// TestDisconnectWithParkedClaims: a connection that dies with N claims
// parked leaves none of them in the table's queues, is sent nothing
// afterwards — not even the "closed" a drained session's claims get —
// and is never granted anything. The server keeps two records, and a
// live session parks as many claims while the dead one's are withdrawn,
// in the very records those let go of: none of the live claims is
// cancelled with them.
func TestDisconnectWithParkedClaims(t *testing.T) {
	plainAndJournaled(t, testDisconnectWithParkedClaims)
}

// plainAndJournaled runs a session suite as subtests plain, on a server
// without options, and journaled, on one that journals its grants: the
// two run the same sessions.
func plainAndJournaled(t *testing.T, suite func(t *testing.T, opts ...ServerOption)) {
	t.Run("plain", func(t *testing.T) { suite(t) })
	t.Run("journaled", func(t *testing.T) { suite(t, WithJournal(newMemJournal())) })
}

func testDisconnectWithParkedClaims(t *testing.T, opts ...ServerOption) {
	const n = 40
	addr, srv := startServerOpts(t, opts...)
	capParked(srv, 2)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	raw := dialRaw(t, addr)
	var burst, liveBurst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, acquireFrame(uint64(i), int64(100+i), 5)...)
		liveBurst = append(liveBurst, timedAcquireFrame(uint64(i), int64(200+i), 60_000, 5)...)
	}
	if _, err := raw.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Table().WaitersCount() == n })
	live := dialRaw(t, addr)
	wrote := make(chan error, 1)
	go func() {
		_, err := live.conn.Write(liveBurst)
		wrote <- err
	}()
	// Half-close: the server reads EOF, the test can still read whatever
	// the server writes from here on.
	if err := raw.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	raw.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rest, err := io.ReadAll(raw.br); err != nil || len(rest) != 0 {
		t.Fatalf("server wrote %d bytes to a dead session (read error %v)", len(rest), err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Table().WaitersCount() == n && srv.Stats().Cancels == n })
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if st, _, body := live.readReply(); st != statusOK {
		t.Fatalf("the live session's grant: status %d %q", st, body)
	}
	if st, h, w := srv.Stats(), srv.Table().HoldersCount(), srv.Table().WaitersCount(); st.Cancels != n || st.Grants != 2 || h != 1 || w != n-1 {
		t.Fatalf("cancels %d grants %d holders %d waiters %d, want %d, 2, 1 and %d", st.Cancels, st.Grants, h, w, n, n-1)
	}
}

// TestParkedClaimsBackPressure: parked claims count against the
// session's in-flight cap. With the cap reached the read loop stalls —
// the next frame, though grantable at once, is not executed — until
// one parked claim resolves.
func TestParkedClaimsBackPressure(t *testing.T) {
	plainAndJournaled(t, testParkedClaimsBackPressure)
}

func testParkedClaimsBackPressure(t *testing.T, opts ...ServerOption) {
	addr, srv := startServerOpts(t, opts...)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	raw := dialRaw(t, addr)
	var burst []byte
	for i := 0; i < v2MaxInflight; i++ {
		burst = append(burst, acquireFrame(uint64(i), int64(1000+i), 5)...)
	}
	const extra = 5000
	burst = append(burst, acquireFrame(extra, extra, 9)...) // granule 9 is free
	if _, err := raw.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Table().WaitersCount() == v2MaxInflight })
	time.Sleep(50 * time.Millisecond)
	if srv.Table().HeldBy(extra) != 0 {
		t.Fatalf("request %d was executed with %d already in flight", v2MaxInflight+1, v2MaxInflight)
	}
	if err := holder.ReleaseAll(1); err != nil { // grants exactly one parked claim
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Table().HeldBy(extra) == 1 })
	if w := srv.Table().WaitersCount(); w != v2MaxInflight-1 {
		t.Fatalf("%d waiters after one grant, want %d", w, v2MaxInflight-1)
	}
}

// TestLoneRequestAnsweredAtOnce: replies are written out in batches,
// but a batch never waits to fill — not for a lone request, and not for
// a lone grant produced by another session's release while the waiter's
// own reader sits blocked in a read.
func TestLoneRequestAnsweredAtOnce(t *testing.T) {
	plainAndJournaled(t, testLoneRequestAnsweredAtOnce)
}

func testLoneRequestAnsweredAtOnce(t *testing.T, opts ...ServerOption) {
	addr, _ := startServerOpts(t, opts...)
	raw := dialRaw(t, addr)
	start := time.Now()
	if st, id, body := raw.roundTrip(acquireFrame(1, 1, 5)); st != statusOK || id != 1 {
		t.Fatalf("lone acquire: status %d id %d %q", st, id, body)
	}
	other := dialRaw(t, addr)
	if _, err := other.conn.Write(acquireFrame(2, 2, 5)); err != nil { // parks behind txn 1
		t.Fatal(err)
	}
	if st, id, body := raw.roundTrip(releaseFrame(3, 1)); st != statusOK || id != 3 {
		t.Fatalf("lone release: status %d id %d %q", st, id, body)
	}
	if st, id, body := other.readReply(); st != statusOK || id != 2 {
		t.Fatalf("cross-session grant: status %d id %d %q", st, id, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("three lone replies took %v", d)
	}
}

// TestParkedClaimIsNotAGoroutine: on a journaled and on a clustered
// server too, a claim that waits on the lock table is a record in the
// table's queue, not a goroutine. Two hundred claims pipelined on one
// held granule park without the server starting a goroutine apiece, and
// the holder's release hands the granule down them in arrival order —
// each released as it is granted — until nothing is held.
func TestParkedClaimIsNotAGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (string, *Server)
	}{
		{"journaled", func(t *testing.T) (string, *Server) {
			return startServerOpts(t, WithJournal(newMemJournal()))
		}},
		{"clustered", func(t *testing.T) (string, *Server) {
			addrs, servers := startCluster(t, 1, nil)
			return addrs[0], servers[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			addr, srv := tc.start(t)
			holder := dial(t, addr)
			if err := holder.AcquireAll(1, xreq(5)); err != nil {
				t.Fatal(err)
			}
			raw := dialRaw(t, addr)
			if st, _, body := raw.roundTrip(frame(opStats, n+1000, nil)); st != statusOK {
				t.Fatalf("stats: status %d %q", st, body)
			}
			before := runtime.NumGoroutine()
			var burst []byte
			for i := 0; i < n; i++ {
				burst = append(burst, acquireFrame(uint64(i), int64(100+i), 5)...)
			}
			if _, err := raw.conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return srv.Table().WaitersCount() == n })
			if grew := runtime.NumGoroutine() - before; grew >= 20 {
				t.Fatalf("%d parked claims grew the process by %d goroutines", n, grew)
			}
			if err := holder.ReleaseAll(1); err != nil {
				t.Fatal(err)
			}
			for next, released := uint64(0), 0; released < n; {
				st, id, body := raw.readReply()
				if st != statusOK {
					t.Fatalf("reply to %d: status %d %q", id, st, body)
				}
				if id >= n {
					released++
					continue
				}
				if id != next {
					t.Fatalf("claim %d granted while claim %d, which arrived first, waits", id, next)
				}
				next++
				if _, err := raw.conn.Write(releaseFrame(n+id, int64(100+id))); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 && srv.Table().WaitersCount() == 0 })
		})
	}
}

// TestPipelinedSameTxnInArrivalOrder: acquire, release and re-acquire
// of one transaction id, pipelined in a single write, are served in
// arrival order — each finds the state the one before it left — and
// answered in that order. (With an executor per frame the re-acquire
// could overtake the release and be refused as already holding.)
func TestPipelinedSameTxnInArrivalOrder(t *testing.T) {
	addr, srv := startServerOpts(t)
	raw := dialRaw(t, addr)
	const rounds = 300
	for r := 0; r < rounds; r++ {
		txn, id := int64(10+r), uint64(3*r)
		burst := append(acquireFrame(id, txn, 3), releaseFrame(id+1, txn)...)
		burst = append(burst, acquireFrame(id+2, txn, 3)...)
		burst = append(burst, releaseFrame(id+3, txn)...)
		if _, err := raw.conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 4; k++ {
			if st, got, body := raw.readReply(); st != statusOK || got != id+k {
				t.Fatalf("round %d: reply %d has status %d id %d %q", r, k, st, got, body)
			}
		}
	}
	if h := srv.Table().HoldersCount(); h != 0 {
		t.Fatalf("%d holders left", h)
	}
}

// discardConn swallows what the server writes.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestInlineGrantAllocationFree is the server-side budget of the
// service's commonest exchange: an acquire granted at once and its
// release, both executed on the session reader and answered into the
// session's write buffer, allocate nothing in the steady state — no
// executor hand-off, no context, no response frame, no request slice.
// It sits beside lockmgr's TestBatchClaimAllocationFree, which pins the
// same for the table underneath.
func TestInlineGrantAllocationFree(t *testing.T) {
	srv := NewServer(nil, nil)
	sess := newSession(discardConn{})
	const txn = 42
	acquire := timedAcquireFrame(1, txn, 1000, 10, 11, 12, 13)[4+frameHeader:]
	release := releaseFrame(2, txn)[4+frameHeader:]
	cycle := func() {
		sess.pending.Add(2)
		srv.serve(sess, opAcquire, 1, acquire)
		srv.serve(sess, opRelease, 2, release)
	}
	for i := 0; i < 16; i++ {
		cycle() // make the granule records, size the buffers
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("%v allocations per inline acquire+release, want 0", avg)
	}
	if st := srv.Stats(); st.Grants != 2017 || st.Holders != 0 || sess.pending.Load() != 0 {
		t.Fatalf("grants %d holders %d pending %d", st.Grants, st.Holders, sess.pending.Load())
	}
}

// TestParkedRecordSize pins the record a parked acquire lives in, whose
// retirement is the contended service's allocation rate: 448 bytes, 18
// to a span of its size class and 8 short of the next, which the embedded
// lockmgr.ParkedClaim (pinned at 336 there) must not grow into.
func TestParkedRecordSize(t *testing.T) {
	var pa parkedAcquire
	if got := unsafe.Sizeof(pa); got != 448 {
		t.Fatalf("parkedAcquire is %d bytes, want 448: re-derive the parkedRecordUses comment, and lockmgr's claimRecordUses one, before changing it", got)
	}
}

// TestParkedClaimAllocationFree is the budget of the exchange the
// contended end of the service runs on: an acquire that parks behind
// another session's transaction, that session's release, which grants
// the parked claim and writes its reply from the releasing reader, and
// the waiter's own release. The parked acquire's record — claim, request
// copy, deadline timer, callbacks — comes back from the server's free
// list, so a cycle allocates nothing except when a record is retired
// (one in parkedRecordUses parks: record, timer, two bound callbacks).
func TestParkedClaimAllocationFree(t *testing.T) {
	srv := NewServer(nil, nil)
	a, b := newSession(discardConn{}), newSession(discardConn{})
	b.w.owned.Store(false) // its reader sits in a read: the grant is written by the releaser
	body := func(f []byte) []byte { return f[4+frameHeader:] }
	hold, wait := body(timedAcquireFrame(1, 1, 1000, 10, 11)), body(timedAcquireFrame(2, 2, 1000, 11, 12))
	rel1, rel2 := body(releaseFrame(3, 1)), body(releaseFrame(4, 2))
	cycle := func() {
		a.pending.Add(2)
		b.pending.Add(2)
		srv.serve(a, opAcquire, 1, hold)
		srv.serve(b, opAcquire, 2, wait)
		if srv.table.WaitersCount() != 1 {
			t.Fatal("the second claim did not park")
		}
		srv.serve(a, opRelease, 3, rel1)
		if srv.table.HeldBy(2) != 2 {
			t.Fatal("the release did not grant the parked claim")
		}
		srv.serve(b, opRelease, 4, rel2)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	const cycles = 20 * parkedRecordUses
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got, retired := after.Mallocs-before.Mallocs, uint64(cycles/parkedRecordUses+1); got > 5*retired {
		t.Fatalf("%d allocations in %d park/grant cycles, want at most the %d retired records' 4 each and change", got, cycles, retired)
	}
	if st := srv.Stats(); st.Holders != 0 || st.Timeouts != 0 || a.pending.Load() != 0 || b.pending.Load() != 0 {
		t.Fatalf("holders %d timeouts %d pending %d/%d", st.Holders, st.Timeouts, a.pending.Load(), b.pending.Load())
	}
}
