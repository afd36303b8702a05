package locksrv

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/race"
)

// The coalescing writer (connWriter) is one implementation for both
// ends of the wire; these tests pin it on its own, under a session's
// reader and under a client's callers, over connections that count and
// gate the writes they get.

// stalledConn blocks every write until released (one receive from
// release per write; close it to let all through), like a peer that has
// stopped reading with its socket buffers full, and counts what got out.
type stalledConn struct {
	discardConn
	entered chan struct{} // one token per write begun
	release chan struct{}
	written atomic.Int64
}

func (c *stalledConn) Write(p []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	c.written.Add(int64(len(p)))
	return len(p), nil
}

func newStalledWriter() (*connWriter, *stalledConn) {
	conn := &stalledConn{entered: make(chan struct{}, 16), release: make(chan struct{})}
	w := new(connWriter)
	w.init(conn)
	return w, conn
}

// appendFrame appends one n-byte frame to w the way a reply or a
// request is: lock, encode, appended.
func appendFrame(w *connWriter, n int) {
	w.mu.Lock()
	w.buf.start(statusOK, 1)
	w.buf.appendBytes(make([]byte, n-4-frameHeader))
	w.buf.finish()
	_ = w.appended(false)
}

// frameDuringOwnersFlush appends a frame while the buffer's owner, about
// to block, is writing the buffer out, and returns how many bytes were
// written by the time the owner blocked. The owner gives the buffer up
// the way connWriter.release does or, as the mutant, the other way
// round: flush first, then the mark.
func frameDuringOwnersFlush(t *testing.T, markAfterFlush bool) int64 {
	t.Helper()
	w, conn := newStalledWriter()
	w.own()
	appendFrame(w, 13) // the owner is running: buffered
	blocked := make(chan struct{})
	go func() {
		if markAfterFlush {
			w.flush()
			w.owned.Store(false)
		} else {
			w.release()
		}
		close(blocked)
	}()
	<-conn.entered
	appendFrame(w, 13) // arrives mid-write: left to the writer
	conn.release <- struct{}{}
	select {
	case <-conn.entered: // the flush went round again
		conn.release <- struct{}{}
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("flush never finished")
	}
	<-blocked
	return conn.written.Load()
}

// TestReplyDuringReadersFlushIsWritten: the reader flushes before it
// blocks, with the buffer mutex released for the write; a reply another
// goroutine appends meanwhile finds a writer at work and is left to
// it. The reader must write that reply out too before it blocks —
// nobody else will. The seeded mutant — mark the buffer unowned only
// after the flush — is what lost such replies: the flush saw an owner
// and left them to it.
func TestReplyDuringReadersFlushIsWritten(t *testing.T) {
	if got := frameDuringOwnersFlush(t, false); got != 2*13 {
		t.Fatalf("%d bytes written before the reader blocked, want %d", got, 2*13)
	}
	if got := frameDuringOwnersFlush(t, true); got != 13 {
		t.Fatalf("the mutant (mark after flush) wrote %d bytes, want the first frame's 13 only", got)
	}
}

// TestWriteBacklogBounded: while one goroutine is stuck writing to a
// stalled connection the others leave their frames in the buffer and go
// on — up to wbufLimit. Past it they wait for the write, so the backlog
// of a peer that has stopped reading stops growing (the write timeout
// then ends a session). Every step is read off the writer's own state:
// the write entered, the backlog past the limit with its producer among
// the stalled, the producer released by the write's end.
func TestWriteBacklogBounded(t *testing.T) {
	for _, owned := range []bool{false, true} {
		w, conn := newStalledWriter()
		const frameLen = 1000
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendFrame(w, frameLen) // becomes the writer and stalls
		}()
		<-conn.entered
		// With an owner the same holds: it stops nobody from waiting.
		w.owned.Store(owned)
		for i := 0; i < wbufLimit/frameLen; i++ {
			appendFrame(w, frameLen) // returns at once: left to the writer
		}
		w.mu.Lock()
		backlog := len(w.buf.b)
		w.mu.Unlock()
		if backlog >= wbufLimit || backlog+frameLen < wbufLimit {
			t.Fatalf("backlog %d is not within a frame of the limit %d", backlog, wbufLimit)
		}
		released := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendFrame(w, frameLen) // the buffer goes past the limit: waits for the writer
			close(released)
		}()
		stalled := func() (n, backlog int) {
			w.mu.Lock()
			defer w.mu.Unlock()
			return w.stalled, len(w.buf.b)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if n, backlog := stalled(); n == 1 && backlog >= wbufLimit {
				break
			}
			select {
			case <-released:
				t.Fatal("a frame past the backlog limit did not wait for the stalled write")
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("the frame past the backlog limit never reached the writer")
			}
		}
		close(conn.release)
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatal("the waiting frame was never released")
		}
		wg.Wait()
		if owned {
			w.release() // what an owner does before it blocks
		}
		if got, want := conn.written.Load(), int64((wbufLimit/frameLen+2)*frameLen); got != want {
			t.Fatalf("owned %v: %d bytes written, want %d", owned, got, want)
		}
		if n, backlog := stalled(); n != 0 || backlog != 0 || w.writing {
			t.Fatalf("owned %v: %d stalled, %d bytes buffered, writing %v at rest", owned, n, backlog, w.writing)
		}
	}
}

// scriptConn is a session's connection under the test's hand: every
// send on reads is what one Read returns (close it for EOF), and the
// writes it records are counted.
type scriptConn struct {
	sinkConn
	reads  chan []byte
	writes atomic.Int64
}

func (c *scriptConn) Read(p []byte) (int, error) {
	b, ok := <-c.reads
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.sinkConn.Write(p)
}

// TestBurstAnsweredInTwoWrites: a burst of pipelined requests that one
// read delivers is answered in two writes whatever its size — the
// replies to the first half when half of the read is decoded, the rest
// before the next read — and a lone request in one.
func TestBurstAnsweredInTwoWrites(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 50} {
		srv := NewServer(nil, nil)
		conn := &scriptConn{reads: make(chan []byte)}
		sess := newSession(conn)
		srv.wg.Add(1)
		done := make(chan struct{})
		go func() {
			srv.handle(sess)
			close(done)
		}()
		var burst []byte
		for i := 0; i < n; i++ {
			burst = append(burst, acquireFrame(uint64(i), int64(100+i), int64(i))...)
		}
		conn.reads <- []byte(protoMagic)
		conn.reads <- burst
		waitFor(t, func() bool {
			statuses, _ := replies(t, conn.written())
			return len(statuses) == n
		})
		close(conn.reads)
		<-done
		statuses, ids := replies(t, conn.written())
		for i, st := range statuses {
			if st != statusOK || ids[i] != uint64(i) {
				t.Fatalf("burst of %d: reply %d has status %d id %d", n, i, st, ids[i])
			}
		}
		if writes, want := conn.writes.Load(), int64(min(n, 2)); writes != want {
			t.Fatalf("burst of %d answered in %d writes, want %d", n, writes, want)
		}
	}
}

// gateConn is a client's connection that counts the writes after the
// magic and holds the first of them until the gate opens.
type gateConn struct {
	net.Conn
	entered chan struct{} // closed when the first write has begun
	gate    chan struct{}
	writes  atomic.Int64
}

func (c *gateConn) Write(p []byte) (int, error) {
	if string(p) != protoMagic && c.writes.Add(1) == 1 {
		close(c.entered)
		<-c.gate
	}
	return c.Conn.Write(p)
}

// TestConcurrentCallersShareWrites: the frames of 16 concurrent callers
// all arrive, in fewer writes than frames. The first caller to write is
// held in its write; the other callers' frames, appended while that
// write is in progress, are left to it, and it writes them out in one
// more write before it returns — no caller but that one ever writes.
func TestConcurrentCallersShareWrites(t *testing.T) {
	const callers = 16
	addr, srv := startServerOpts(t)
	conn := &gateConn{entered: make(chan struct{}), gate: make(chan struct{})}
	c := dial(t, addr, WithDialer(func(addr string) (net.Conn, error) {
		tcp, err := net.Dial("tcp", addr)
		conn.Conn = tcp
		return conn, err
	}))
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- c.AcquireAll(int64(1+i), xreq(int64(i))) }()
	}
	<-conn.entered
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == callers
	})
	// Every call is registered, so every frame is in the buffer by the
	// time its mutex can be had: a caller takes it before it lets go of
	// the registration's.
	c.mu.Lock()
	w := c.w
	c.mu.Unlock()
	w.mu.Lock()
	left := len(w.buf.b)
	w.mu.Unlock()
	close(conn.gate)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := int64(1) // every frame was appended during the first caller's yield
	if left > 0 {
		want = 2
	}
	if writes := conn.writes.Load(); writes != want {
		t.Fatalf("%d frames left in %d writes, want %d (%d bytes were appended during the first)", callers, writes, want, left)
	}
	if h := srv.Table().HoldersCount(); h != callers {
		t.Fatalf("%d holders, want %d", h, callers)
	}
}

// TestWriteFailureFailsEachCallOnce: behind a transport that splits
// every write and tears connections down mid-write, a write that fails
// while it carries other callers' frames fails every call in flight on
// that connection — once: each retries, and every retry succeeds. A
// call failed twice would find its second error in a channel the pool
// handed to a later call.
func TestWriteFailureFailsEachCallOnce(t *testing.T) {
	const callers, rounds = 8, 60
	addr, srv := startServerOpts(t)
	var fs FaultStats
	c := dial(t, addr,
		WithDialer(FaultyDialer(FaultConfig{DropProb: 0.02, PartialWrites: true}, 11, &fs)),
		WithRetries(50),
		WithBackoff(time.Millisecond, 4*time.Millisecond),
		WithJitterSeed(3),
	)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := int64(i*rounds + r + 1)
				if err := c.AcquireAll(txn, xreq(int64(i))); err != nil {
					t.Errorf("caller %d round %d acquire: %v", i, r, err)
					return
				}
				if err := c.ReleaseAll(txn); err != nil {
					t.Errorf("caller %d round %d release: %v", i, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fs.Drops.Load() == 0 || c.Reconnects() == 0 {
		t.Fatalf("%d drops, %d reconnects: the schedule proves nothing", fs.Drops.Load(), c.Reconnects())
	}
	// A connection's death fails at most the one call each caller has in
	// flight on it.
	if got, most := c.Retries(), callers*(c.Reconnects()+1); got == 0 || got > most {
		t.Fatalf("%d retries over %d connections of %d callers, want 1..%d", got, c.Reconnects()+1, callers, most)
	}
	c.mu.Lock()
	stray := len(c.pending)
	c.mu.Unlock()
	if stray != 0 {
		t.Fatalf("%d calls still registered", stray)
	}
	waitFor(t, func() bool { return srv.Table().HoldersCount() == 0 })
	t.Logf("%d calls over %d connections: %d retries", 2*callers*rounds, c.Reconnects()+1, c.Retries())
}

// TestClientRoundTripAllocations is the client-side budget of the
// service's commonest exchange, beside the server's
// TestInlineGrantAllocationFree: an AcquireAll and its ReleaseAll over
// loopback — frames encoded into the connection's buffer, written by
// the caller, replies matched through a pooled channel — allocate
// nothing in the steady state on either end. What is left is the
// retirement of pooled frame buffers, two objects per frameBufUses
// frames read, which AllocsPerRun's average rounds away.
func TestClientRoundTripAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	addr, _ := startServerOpts(t)
	c := dial(t, addr)
	reqs := xreq(10, 11, 12, 13)
	const txn = 42
	cycle := func() {
		if err := c.AcquireAllTimeout(txn, reqs, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.ReleaseAll(txn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // promote the granules, size the buffers, fill the pools
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("%v allocations per acquire+release round trip, want 0", avg)
	}
}
