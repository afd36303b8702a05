package locksrv

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

// startServer launches a server on an ephemeral port and returns its
// address plus a cleanup.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, nil)
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

// WithBackoff sets the reconnect backoff: attempt k sleeps for
// base·2^k, capped at max, with deterministic jitter in [d/2, d).
// Default 10ms base, 1s cap.
func WithBackoff(base, max time.Duration) ClientOption {
	return func(c *clientCfg) { c.backoffBase, c.backoffMax = base, max }
}

func dial(t *testing.T, addr string, opts ...ClientOption) *ClientV2 {
	t.Helper()
	c, err := DialV2(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func xreq(granules ...int64) []lockmgr.Request {
	out := make([]lockmgr.Request, len(granules))
	for i, g := range granules {
		out[i] = lockmgr.Request{Granule: lockmgr.Granule(g), Mode: lockmgr.ModeExclusive}
	}
	return out
}

// rawSession is a hand-driven connection for tests that must control
// exactly what goes on the wire: the magic is sent, and every frame
// after it is the test's own.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(protoMagic)); err != nil {
		t.Fatal(err)
	}
	return &rawSession{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// acquireFrame is the wire form of an exclusive single-granule claim.
func acquireFrame(id uint64, txn, granule int64) []byte {
	return timedAcquireFrame(id, txn, 0, granule)
}

// roundTrip writes one request frame and reads one response frame.
func (r *rawSession) roundTrip(frame []byte) (status byte, id uint64, body string) {
	r.t.Helper()
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatal(err)
	}
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fb, status, id, b, err := readFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	defer putFrame(fb)
	return status, id, string(b)
}

// TestAcquireReleaseRoundTrip is the basic happy path: claim, release,
// re-claim the same granules, and read both halves of the stats op.
func TestAcquireReleaseRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr)
	if err := c.AcquireAll(1, xreq(10, 11)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Grants != 1 {
		t.Fatalf("grants %d", stats.Grants)
	}
	if err := c.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	// Released: another txn can take the same granules.
	if err := c.AcquireAll(2, xreq(10, 11)); err != nil {
		t.Fatalf("reacquire: %v", err)
	}
	if err := c.ReleaseAll(2); err != nil {
		t.Fatal(err)
	}
	stats, srv, err := c.FullStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Grants != 2 {
		t.Fatalf("grants = %d, want 2", stats.Grants)
	}
	if srv.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", srv.Sessions)
	}
}

func TestConflictBlocksAcrossConnections(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	waiter := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(5)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(5)) }()
	select {
	case err := <-done:
		t.Fatalf("conflicting claim granted remotely: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote waiter never granted after release")
	}
}

func TestSharedLocksCoexistRemotely(t *testing.T) {
	addr, _ := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)
	sreq := []lockmgr.Request{{Granule: 7, Mode: lockmgr.ModeShared}}
	if err := a.AcquireAll(1, sreq); err != nil {
		t.Fatal(err)
	}
	granted := make(chan error, 1)
	go func() { granted <- b.AcquireAll(2, sreq) }()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shared lock blocked remotely")
	}
}

func TestDisconnectReleasesLocks(t *testing.T) {
	addr, _ := startServer(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(3)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(3)) }()
	time.Sleep(30 * time.Millisecond)
	holder.Close() // crash the holder's session
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter after holder crash: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("holder crash did not release its locks")
	}
}

func TestServerCloseUnblocksWaiters(t *testing.T) {
	addr, srv := startServer(t)
	holder := dial(t, addr)
	if err := holder.AcquireAll(1, xreq(9)); err != nil {
		t.Fatal(err)
	}
	waiter := dial(t, addr)
	done := make(chan error, 1)
	go func() { done <- waiter.AcquireAll(2, xreq(9)) }()
	time.Sleep(30 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Shutdown ordering races are fine (the waiter may be granted just
	// as the holder's teardown releases its locks, or see an error);
	// what must never happen is the waiter hanging forever.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("server close left waiter hanging")
	}
}

// TestProtocolErrors drives malformed requests over raw frames: each is
// answered with its status and detail under the request's id, and the
// session survives to serve the next frame.
func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	raw := dialRaw(t, addr)

	frame := func(op byte, id uint64, body ...byte) []byte {
		fb := getFrame()
		defer putFrame(fb)
		fb.start(op, id)
		fb.appendBytes(body)
		fb.finish()
		return append([]byte(nil), fb.bytes()...)
	}
	noGranules := make([]byte, 20) // txn 0, timeout 0, n = 0
	for i, tc := range []struct {
		frame      []byte
		wantStatus byte
		wantErr    string
	}{
		{frame(opAcquire, 1, noGranules...), statusBadRequest, "without granules"},
		{frame(opAcquire, 2, noGranules[:19]...), statusBadRequest, "malformed acquire body"},
		{frame(opRelease, 3, 1, 2, 3), statusBadRequest, "malformed release body"},
		{frame(opStats, 4, 0), statusBadRequest, "stats takes no body"},
		{frame(99, 5), statusUnknownOp, "unknown"},
	} {
		status, id, body := raw.roundTrip(tc.frame)
		if status != tc.wantStatus || id != uint64(i+1) || !strings.Contains(body, tc.wantErr) {
			t.Fatalf("case %d: status %d id %d body %q, want status %d with %q", i, status, id, body, tc.wantStatus, tc.wantErr)
		}
	}
	if status, _, body := raw.roundTrip(acquireFrame(6, 1, 5)); status != statusOK {
		t.Fatalf("session unusable after protocol errors: status %d %q", status, body)
	}
}

func TestDistributedConservationStress(t *testing.T) {
	// Many client sessions in this process behave like shared-nothing
	// workers: exclusive claims must still be mutually exclusive across
	// the wire.
	addr, _ := startServer(t)
	var inCritical [4]atomic.Int32
	var txnSeq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialV2(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				txn := txnSeq.Add(1)
				g := int64((w + i) % 4)
				if err := c.AcquireAll(txn, xreq(g)); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if inCritical[g].Add(1) != 1 {
					t.Errorf("mutual exclusion violated on granule %d", g)
				}
				inCritical[g].Add(-1)
				if err := c.ReleaseAll(txn); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerDoubleCloseAndAddr(t *testing.T) {
	addr, srv := startServer(t)
	if srv.Addr().String() != addr {
		t.Fatal("addr mismatch")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored")
	}
}
