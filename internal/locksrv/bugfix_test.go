package locksrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

// Regression: AcquireN/ReleaseN used to encode the whole batch into a
// single frame, which the wire rejects as connection-fatal above
// maxFrame. The client must chunk instead. maxBatchBytes is a var so
// the chunking path is cheap to exercise; the over-cap ReleaseN below
// drives a genuinely over-4MiB batch through the real limit.
func TestAcquireNChunksByteBudget(t *testing.T) {
	old := maxBatchBytes
	maxBatchBytes = 4096
	defer func() { maxBatchBytes = old }()

	addr, srv := startServer(t)
	c := dial(t, addr, WithRetries(0))
	const nClaims = 60
	const perClaim = 30 // 290 encoded bytes/claim → ~14 claims/frame
	claims := make([]Claim, nClaims)
	for i := range claims {
		reqs := make([]int64, perClaim)
		for j := range reqs {
			reqs[j] = int64(i*perClaim + j)
		}
		claims[i] = Claim{Txn: int64(i + 1), Reqs: xreq(reqs...)}
	}
	outs, err := c.AcquireN(claims)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != nClaims {
		t.Fatalf("%d results for %d claims", len(outs), nClaims)
	}
	for i, out := range outs {
		if out != nil {
			t.Fatalf("claim %d: %v", i, out)
		}
	}
	if n := srv.Table().LockedGranules(); n != nClaims*perClaim {
		t.Fatalf("%d granules locked, want %d", n, nClaims*perClaim)
	}
	txns := make([]int64, nClaims)
	for i := range txns {
		txns[i] = int64(i + 1)
	}
	routs, err := c.ReleaseN(txns)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range routs {
		if out != nil {
			t.Fatalf("release %d: %v", i, out)
		}
	}
	if n := srv.Table().LockedGranules(); n != 0 {
		t.Fatalf("%d granules still locked", n)
	}
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

// AcquireN must also respect the server's per-frame item cap
// (v2MaxInflight), not just the byte budget.
func TestAcquireNChunksItemCount(t *testing.T) {
	addr, srv := startServer(t)
	c := dial(t, addr, WithRetries(0))
	claims := make([]Claim, v2MaxInflight+40)
	for i := range claims {
		claims[i] = Claim{Txn: int64(i + 1), Reqs: xreq(int64(i))}
	}
	outs, err := c.AcquireN(claims)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out != nil {
			t.Fatalf("claim %d: %v", i, out)
		}
	}
	if n := srv.Table().LockedGranules(); n != len(claims) {
		t.Fatalf("%d granules locked, want %d", n, len(claims))
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
