package locksrv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/race"
)

// TestFrameCodecRoundTrip pins the v2 frame layout: header fields and
// body survive an encode/decode cycle, and the reader demands exact
// body consumption.
func TestFrameCodecRoundTrip(t *testing.T) {
	fb := getFrame()
	fb.start(opAcquire, 0xDEADBEEF)
	fb.appendU64(42)
	fb.appendU32(7)
	fb.appendByte(1)
	fb.finish()

	br := bufio.NewReader(bytes.NewReader(fb.bytes()))
	got, op, id, body, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	defer putFrame(got)
	if op != opAcquire || id != 0xDEADBEEF {
		t.Fatalf("header mismatch: op=%d id=%#x", op, id)
	}
	fr := frameReader{b: body}
	if fr.u64() != 42 || fr.u32() != 7 || fr.byte() != 1 {
		t.Fatal("body fields mismatch")
	}
	if !fr.done() {
		t.Fatal("reader should report exact consumption")
	}
	fr2 := frameReader{b: body}
	fr2.u64()
	if fr2.done() {
		t.Fatal("done must fail with unconsumed bytes")
	}
	putFrame(fb)
}

// TestReadFrameRejectsOversized pins the frame length guard.
func TestReadFrameRejectsOversized(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF} // length ~4GB
	_, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestReadFrameAllocationFree: reading a frame — four times per
// acquire/release pair, client and server — takes a pooled buffer and
// nothing else; the length prefix is read into that buffer, not into a
// local array that the io.Reader interface would move to the heap. What
// is left is the retirement of pooled buffers: two objects per
// frameBufUses frames.
func TestReadFrameAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const reads = 4 * frameBufUses
	stream := bytes.Repeat(timedAcquireFrame(7, 42, 1000, 10, 11, 12, 13), reads+16)
	br := bufio.NewReader(bytes.NewReader(stream))
	read := func() {
		fb, op, id, body, err := readFrame(br)
		if err != nil || op != opAcquire || id != 7 || len(body) != 8+8+4+4*9 {
			t.Fatalf("op %d id %d body %d bytes: %v", op, id, len(body), err)
		}
		putFrame(fb)
	}
	for i := 0; i < 16; i++ {
		read()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if got, retired := after.Mallocs-before.Mallocs, uint64(reads/frameBufUses+1); got > 2*retired+2 {
		t.Fatalf("%d allocations in %d frame reads, want the %d retired buffers' 2 each", got, reads, retired)
	}
}

// TestV2PipelinedOutOfOrder proves responses are matched by id, not
// arrival order: a blocked acquire must not hold up later requests on
// the same connection, and its response arrives after theirs.
func TestV2PipelinedOutOfOrder(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	c := dial(t, addr)

	if err := holder.AcquireAll(1, xreq(100)); err != nil {
		t.Fatal(err)
	}

	blockedDone := make(chan error, 1)
	go func() { blockedDone <- c.AcquireAll(2, xreq(100)) }()

	// Wait until txn 2 is actually parked server-side.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := holder.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Blocks >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("txn 2 never blocked")
		}
		time.Sleep(time.Millisecond)
	}

	// Later requests on the SAME pipelined connection complete while
	// txn 2 is still parked.
	var fastDone atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			txn := int64(10 + i)
			if err := c.AcquireAll(txn, xreq(int64(200+i))); err != nil {
				t.Errorf("fast acquire %d: %v", i, err)
				return
			}
			fastDone.Add(1)
			if err := c.ReleaseAll(txn); err != nil {
				t.Errorf("fast release %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	select {
	case err := <-blockedDone:
		t.Fatalf("blocked acquire completed before release: %v", err)
	default:
	}
	if fastDone.Load() != 8 {
		t.Fatalf("fast requests done = %d, want 8", fastDone.Load())
	}

	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked acquire after release: %v", err)
	}
	if err := c.ReleaseAll(2); err != nil {
		t.Fatal(err)
	}
}

// TestV2TimeoutAndNotOwner checks the typed-error mapping across the
// binary status codes.
func TestV2TimeoutAndNotOwner(t *testing.T) {
	addr, _ := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)

	if err := a.AcquireAll(1, xreq(7)); err != nil {
		t.Fatal(err)
	}
	err := b.AcquireAllTimeout(2, xreq(7), 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if err := b.ReleaseAll(1); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("want ErrNotOwner, got %v", err)
	}
	// Unknown txn: idempotent no-op.
	if err := b.ReleaseAll(999); err != nil {
		t.Fatalf("unknown release: %v", err)
	}
	if err := a.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// TestReplyErrTaxonomy pins the status → typed-error switch: every
// status the server can send has its own error, and a status outside
// the taxonomy is a malformed reply, not one of them.
func TestReplyErrTaxonomy(t *testing.T) {
	want := map[byte]error{
		statusTimeout:         ErrTimeout,
		statusClosed:          ErrSessionClosed,
		statusNotOwner:        ErrNotOwner,
		statusBadRequest:      ErrBadRequest,
		statusUnknownOp:       ErrUnknownOp,
		statusRedirect:        ErrRedirect,
		statusLeaseExpired:    ErrLeaseExpired,
		statusUnavailable:     ErrUnavailable,
		statusUnavailable + 1: ErrMalformedReply,
		0xFF:                  ErrMalformedReply,
	}
	if err := replyErr("acquire", v2Reply{status: statusOK}); err != nil {
		t.Fatalf("statusOK: %v", err)
	}
	for st, base := range want {
		err := replyErr("acquire", v2Reply{status: st, body: []byte("detail")})
		for _, other := range want {
			if got := errors.Is(err, other); got != (other == base) {
				t.Fatalf("status %d: %v; errors.Is(%v) = %v", st, err, other, got)
			}
		}
	}
}

// TestV2BatchOps exercises acquireN/releaseN: independent sub-claims in
// one frame, per-item outcomes.
func TestV2BatchOps(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	c := dial(t, addr)

	if err := holder.AcquireAll(1, xreq(300)); err != nil {
		t.Fatal(err)
	}

	outs, err := c.AcquireN([]Claim{
		{Txn: 10, Reqs: xreq(301)},
		{Txn: 11, Reqs: xreq(300), Timeout: 20 * time.Millisecond}, // conflicts → timeout
		{Txn: 12, Reqs: xreq(302, 303)},
	})
	if err != nil {
		t.Fatalf("acquireN transport: %v", err)
	}
	if outs[0] != nil {
		t.Fatalf("claim 0: %v", outs[0])
	}
	if !errors.Is(outs[1], ErrTimeout) {
		t.Fatalf("claim 1: want ErrTimeout, got %v", outs[1])
	}
	if outs[2] != nil {
		t.Fatalf("claim 2: %v", outs[2])
	}

	routs, err := c.ReleaseN([]int64{10, 12, 1})
	if err != nil {
		t.Fatalf("releaseN transport: %v", err)
	}
	if routs[0] != nil || routs[1] != nil {
		t.Fatalf("own releases failed: %v %v", routs[0], routs[1])
	}
	if !errors.Is(routs[2], ErrNotOwner) {
		t.Fatalf("foreign release: want ErrNotOwner, got %v", routs[2])
	}
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// TestV2CloseUnblocksInflight: Close from another goroutine fails a
// parked acquire with ErrClientClosed.
func TestV2CloseUnblocksInflight(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	c, err := DialV2(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.AcquireAll(2, xreq(5)) }()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("want ErrClientClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unblock in-flight acquire")
	}
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
}

// TestV2TornFrames drives the binary protocol through the fault
// injector: torn mid-frame writes, partial writes across packet
// boundaries, and injected drops. The client's retry loop must converge
// and mutual exclusion must hold throughout.
func TestV2TornFrames(t *testing.T) {
	addr, _ := startServer(t)
	stats := &FaultStats{}
	cfg := FaultConfig{DropProb: 0.05, PartialWrites: true}

	const workers = 4
	const iters = 25
	var inside atomic.Int64
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialV2(addr,
				WithDialer(FaultyDialer(cfg, uint64(1000+w), stats)),
				WithRetries(50),
				WithBackoff(time.Millisecond, 4*time.Millisecond),
				WithJitterSeed(uint64(w)+1))
			if err != nil {
				t.Errorf("worker %d dial: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				txn := int64(w*1000 + i + 1)
				if err := c.AcquireAll(txn, xreq(42)); err != nil {
					t.Errorf("worker %d acquire: %v", w, err)
					return
				}
				if inside.Add(1) != 1 {
					t.Errorf("mutual exclusion violated")
				}
				granted.Add(1)
				inside.Add(-1)
				// Release may be retried past transport faults; the server
				// force-released on session death, so not_owner/no-op are
				// both impossible here only for our own live session —
				// tolerate ErrNotOwner after a reconnect race.
				if err := c.ReleaseAll(txn); err != nil && !errors.Is(err, ErrNotOwner) {
					t.Errorf("worker %d release: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if granted.Load() != workers*iters {
		t.Fatalf("grants = %d, want %d", granted.Load(), workers*iters)
	}
	if stats.Drops.Load() == 0 {
		t.Fatal("fault injector never fired; test exercised nothing")
	}
	t.Logf("faults: drops=%d partials=%d", stats.Drops.Load(), stats.PartialWrites.Load())
}

// TestV2ReconnectAfterServerSideClose: the client redials transparently
// when its connection dies underneath it.
func TestV2ReconnectAfterServerSideClose(t *testing.T) {
	addr, srv := startServer(t)
	c := dial(t, addr, WithRetries(5), WithBackoff(time.Millisecond, 5*time.Millisecond), WithJitterSeed(9))

	if err := c.AcquireAll(1, xreq(1)); err != nil {
		t.Fatal(err)
	}
	// Kill every live session server-side.
	srv.mu.Lock()
	for sess := range srv.sessions {
		sess.conn.Close()
	}
	srv.mu.Unlock()

	// The next call rides the retry loop onto a fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.AcquireAll(2, xreq(2))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
	}
	if c.Reconnects() == 0 {
		t.Fatal("reconnect not counted")
	}
	if err := c.ReleaseAll(2); err != nil {
		t.Fatal(err)
	}
}

// TestNonMagicOpenerRejected: a connection that opens with anything but
// the protocol magic — line noise, or a request in the retired
// newline-JSON protocol — is closed promptly and without a reply, never
// becomes a frame session, leaks no session and holds nothing, and the
// server keeps serving real clients.
func TestNonMagicOpenerRejected(t *testing.T) {
	for name, opener := range map[string]string{
		"garbage": "XXXXgarbage",
		"json":    `{"op":"acquire","txn":1,"granules":[5],"exclusive":[true]}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			addr, srv := startServer(t)
			c := dial(t, addr)

			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write([]byte(opener)); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if n, err := raw.Read(make([]byte, 64)); err != io.EOF {
				t.Fatalf("read %d bytes, err %v; want the connection closed without a reply", n, err)
			}
			// Only c is left — once its handshake has been read: until then
			// the one session counted may be the rejected opener's.
			waitFor(t, func() bool { return srv.Stats().Sessions == 1 && srv.om.v2Sessions.Value() >= 1 })
			if got := srv.om.v2Sessions.Value(); got != 1 {
				t.Fatalf("%d frame sessions, want 1: the opener was taken for a client", got)
			}
			if n := srv.Table().HoldersCount(); n != 0 {
				t.Fatalf("%d holders after a rejected opener", n)
			}

			if err := c.AcquireAll(1, xreq(5)); err != nil {
				t.Fatal(err)
			}
			if err := c.ReleaseAll(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}
