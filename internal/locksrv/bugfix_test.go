package locksrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

// recordingConn keeps a copy of everything the client writes, so a test
// can read back the frames it sent.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	out []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sentFrames returns the op and body of every frame written so far.
func (c *recordingConn) sentFrames(t *testing.T) (ops []byte, bodies [][]byte) {
	t.Helper()
	c.mu.Lock()
	b := bytes.Clone(c.out)
	c.mu.Unlock()
	b = bytes.TrimPrefix(b, []byte(protoMagic))
	for len(b) > 0 {
		if len(b) < 13 || int(binary.BigEndian.Uint32(b)) > len(b)-4 {
			t.Fatalf("torn frame in the client's output: %d bytes left", len(b))
		}
		n := int(binary.BigEndian.Uint32(b))
		ops = append(ops, b[4])
		bodies = append(bodies, b[13:4+n])
		b = b[4+n:]
	}
	return ops, bodies
}

// Regression: AcquireN/ReleaseN used to encode the whole batch into a
// single frame, which the wire rejects as connection-fatal above
// maxFrame. Every batch op (AcquireN, ReleaseN, Lease) splits its items
// across frames instead: each frame stays within the byte budget
// (maxBatchBytes, a var so chunking is cheap to exercise;
// TestReleaseNOverFrameCap drives the real 4 MiB limit).
func TestAcquireNChunksByteBudget(t *testing.T) {
	// 106-byte claims, 98-byte lease items, 8-byte releases: every op
	// needs several frames under 1 KiB.
	checkBatchChunks(t, 1024, repeat(200, 10), false)
}

// Every batch op must also respect the server's per-frame item cap
// (v2MaxInflight), not just the byte budget.
func TestAcquireNChunksItemCount(t *testing.T) {
	checkBatchChunks(t, maxBatchBytes, repeat(v2MaxInflight+40, 1), false)
}

// An item too large for any frame fails the call before anything is
// sent. The last item alone is over 256 bytes; a release item is 8 bytes
// whatever its transaction holds, so ReleaseN has no such case.
func TestBatchOversizeItemRejected(t *testing.T) {
	checkBatchChunks(t, 256, append(repeat(3, 1), 64), true)
}

// acquireItems claims granules[i] exclusively for txn i+1 in one AcquireN.
func acquireItems(c *ClientV2, granules [][]int64) ([]error, error) {
	claims := make([]Claim, len(granules))
	for i, g := range granules {
		claims[i] = Claim{Txn: int64(i + 1), Reqs: xreq(g...)}
	}
	return c.AcquireN(claims)
}

// checkBatchChunks sends one item per entry of sizes, each naming that
// many fresh granules, through every batch op with maxBatchBytes set to
// budget, and checks the frames the client wrote. With oversize the last
// item fits no frame and the call must fail with nothing sent.
func checkBatchChunks(t *testing.T, budget int, sizes []int, oversize bool) {
	ops := []struct {
		name    string
		op      byte
		countAt int // offset of the item count in a frame body
		send    func(c *ClientV2, granules [][]int64) ([]error, error)
	}{
		{"acquireN", opAcquireN, 0, acquireItems},
		{"releaseN", opReleaseN, 0, func(c *ClientV2, granules [][]int64) ([]error, error) {
			txns := make([]int64, len(granules))
			for i := range txns {
				txns[i] = int64(i + 1)
			}
			return c.ReleaseN(txns)
		}},
		{"lease", opLease, 8, func(c *ClientV2, granules [][]int64) ([]error, error) {
			items := make([]LeaseTxn, len(granules))
			for i, g := range granules {
				items[i] = LeaseTxn{Txn: int64(i + 1), Reqs: xreq(g...)}
			}
			return c.Lease(1, items)
		}},
	}
	for _, op := range ops {
		if oversize && op.op == opReleaseN {
			continue
		}
		t.Run(op.name, func(t *testing.T) {
			old := maxBatchBytes
			maxBatchBytes = budget
			defer func() { maxBatchBytes = old }()
			var rec *recordingConn
			addr, srv := startServer(t)
			c := dial(t, addr, WithRetries(0), WithDialer(func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				rec = &recordingConn{Conn: conn}
				return rec, err
			}))
			granules := make([][]int64, len(sizes))
			want := 0
			for i, n := range sizes {
				for j := 0; j < n; j++ {
					granules[i] = append(granules[i], int64(want))
					want++
				}
			}
			if op.op == opLease && !oversize {
				// A lease answers OK only for grants its session holds:
				// acquire the items first, so the lease is their refresh,
				// and keep only the lease's frames.
				if outs, err := acquireItems(c, granules); err != nil || errors.Join(outs...) != nil {
					t.Fatalf("acquiring the items to refresh: %v, %v", outs, err)
				}
				rec.mu.Lock()
				rec.out = nil
				rec.mu.Unlock()
			}
			outs, err := op.send(c, granules)
			sentOps, bodies := rec.sentFrames(t)
			if oversize {
				if !errors.Is(err, ErrBadRequest) || len(sentOps) != 0 {
					t.Fatalf("oversize item: err %v after %d frames, want ErrBadRequest and none", err, len(sentOps))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != len(granules) {
				t.Fatalf("%d results for %d items", len(outs), len(granules))
			}
			for i, out := range outs {
				if out != nil {
					t.Fatalf("item %d: %v", i, out)
				}
			}
			items := 0
			for i, body := range bodies {
				k := int(binary.BigEndian.Uint32(body[op.countAt:]))
				if sentOps[i] != op.op || len(body) > budget || k > v2MaxInflight {
					t.Fatalf("frame %d: op %d, %d-byte body, %d items; want op %d, at most %d bytes and %d items",
						i, sentOps[i], len(body), k, op.op, budget, v2MaxInflight)
				}
				items += k
			}
			if len(bodies) < 2 || items != len(granules) {
				t.Fatalf("%d items in %d frames, want %d items in more than one", items, len(bodies), len(granules))
			}
			if op.op == opReleaseN {
				want = 0
			}
			if n := srv.Table().LockedGranules(); n != want {
				t.Fatalf("%d granules locked, want %d", n, want)
			}
		})
	}
}

// repeat returns n copies of v.
func repeat(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// A single claim that cannot fit any frame is the caller's bug and is
// rejected up front rather than sent and killed by the wire.
func TestAcquireNOversizeClaimRejected(t *testing.T) {
	old := maxBatchBytes
	maxBatchBytes = 256
	defer func() { maxBatchBytes = old }()
	addr, _ := startServer(t)
	c := dial(t, addr, WithRetries(0))
	if _, err := c.AcquireN([]Claim{{Txn: 1, Reqs: xreq(make([]int64, 64)...)}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest for oversize claim, got %v", err)
	}
	// The connection must survive the local rejection.
	if err := c.AcquireAll(2, xreq(1)); err != nil {
		t.Fatalf("connection unusable after oversize rejection: %v", err)
	}
}

// The honest over-cap run: 530k release txns encode to ~4.24 MiB,
// over the 4 MiB frame cap. Pre-fix this was a connection-fatal
// oversized frame; with chunking every sub-release must come back.
func TestReleaseNOverFrameCap(t *testing.T) {
	addr, _ := startServer(t)
	c := dial(t, addr, WithRetries(0))
	txns := make([]int64, 530_000)
	for i := range txns {
		txns[i] = int64(i + 1)
	}
	outs, err := c.ReleaseN(txns)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(txns) {
		t.Fatalf("%d results for %d txns", len(outs), len(txns))
	}
	for i, out := range outs {
		if out != nil {
			t.Fatalf("release %d: %v", i, out)
		}
	}
}

// A releaseN frame of more than v2MaxInflight items is refused whole,
// like acquireN and lease: each item may wait on a goroutine of its
// own, so the cap bounds what one frame can make the server hold. A
// frame at the cap is served item by item.
func TestReleaseNOverItemCapRejected(t *testing.T) {
	srv := NewServer(nil, nil)
	sess, conn := sinkSession()
	if ok, err := srv.table.TryAcquireAll(1, xreq(5)); !ok || err != nil {
		t.Fatal(ok, err)
	}
	srv.setOwner(1, sess)
	frame := func(k int) []byte {
		body := binary.BigEndian.AppendUint32(nil, uint32(k))
		for i := 1; i <= k; i++ {
			body = binary.BigEndian.AppendUint64(body, uint64(i))
		}
		return body
	}
	serve := func(id uint64, body []byte) (status byte, reply []byte) {
		t.Helper()
		before := len(conn.written())
		sess.pending.Add(1)
		srv.serve(sess, opReleaseN, id, body)
		waitFor(t, func() bool { return sess.pending.Load() == 0 })
		fb, status, gotID, reply, err := readFrame(bufio.NewReader(bytes.NewReader(conn.written()[before:])))
		if err != nil || gotID != id {
			t.Fatalf("releaseN %d: reply %#x, %v", id, gotID, err)
		}
		reply = bytes.Clone(reply)
		putFrame(fb)
		return status, reply
	}
	if st, _ := serve(1, frame(v2MaxInflight+1)); st != statusBadRequest {
		t.Fatalf("releaseN of %d items answered status %d, want bad_request", v2MaxInflight+1, st)
	}
	if !srv.table.HoldsAtLeast(1, 5, lockmgr.ModeExclusive) {
		t.Fatal("a refused releaseN released one of its items")
	}
	st, reply := serve(2, frame(v2MaxInflight))
	if st != statusOK || binary.BigEndian.Uint32(reply) != v2MaxInflight {
		t.Fatalf("releaseN of %d items answered status %d, %d items", v2MaxInflight, st, binary.BigEndian.Uint32(reply))
	}
	if n := srv.table.LockedGranules(); n != 0 {
		t.Fatalf("%d granules locked after the releaseN at the cap", n)
	}
}

// Regression: Server.Close used to cut connections before blocked
// pipelined requests had flushed their typed "closed" errors, so
// clients saw raw transport failures. With the two-phase force, every
// in-flight request must fail promptly with ErrSessionClosed.
func TestDrainFailsPipelinedBacklogTyped(t *testing.T) {
	addr, srv := startServerOpts(t, WithGrace(50*time.Millisecond))
	holder := dial(t, addr, WithRetries(0))
	if err := holder.AcquireAll(1, xreq(7)); err != nil {
		t.Fatal(err)
	}
	blocked := dial(t, addr, WithRetries(0))
	const backlog = 24
	done := make(chan error, backlog)
	for i := 0; i < backlog; i++ {
		txn := int64(100 + i)
		go func() { done <- blocked.AcquireAll(txn, xreq(7)) }()
	}
	waitFor(t, func() bool { return srv.Table().WaitersCount() == backlog })

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	typed := 0
	for i := 0; i < backlog; i++ {
		select {
		case err := <-done:
			// A waiter may legitimately win the granule when the
			// holder's teardown releases it mid-drain; everything else
			// must carry the typed closed error, never a raw transport
			// failure.
			switch {
			case err == nil:
			case errors.Is(err, ErrSessionClosed):
				typed++
			default:
				t.Fatalf("pipelined request got %v, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pipelined request still hanging %v after Close", time.Since(start))
		}
	}
	if typed < backlog-3 {
		t.Fatalf("only %d of %d pipelined requests saw the typed closed error", typed, backlog)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("drain with backlog took %v", e)
	}
}

// Regression: Close during a retry backoff sleep used to let the sleep
// run to completion. The close must abort it immediately.
func TestCloseAbortsBackoff(t *testing.T) {
	addr, srv := startServer(t)
	c := dial(t, addr, WithRetries(5), WithBackoff(5*time.Second, 5*time.Second))
	if err := c.AcquireAll(1, xreq(1)); err != nil {
		t.Fatal(err)
	}
	srv.Close() // kill the server so the next call lands in backoff
	done := make(chan error, 1)
	go func() { done <- c.AcquireAll(2, xreq(2)) }()
	time.Sleep(100 * time.Millisecond) // let the call reach its backoff sleep
	start := time.Now()
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("want ErrClientClosed, got %v", err)
		}
	case <-time.After(1500 * time.Millisecond):
		t.Fatalf("Close did not abort a 5s backoff sleep (waited %v)", time.Since(start))
	}
}
