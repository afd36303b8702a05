package locksrv

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// wbufLimit is how many bytes of frames may queue in a connection's
// write buffer before the goroutines producing more write them out or,
// behind a write in progress, wait for it; only a connection whose peer
// has stopped reading gets there.
const wbufLimit = 64 << 10

// connWriter is the write side of one connection, the same on both ends
// of the wire: a session's replies and a client's requests are frames
// encoded straight into buf by whichever goroutine produced them — lock
// mu, encode, appended — and written out by one of those goroutines,
// with none of the connection's own in between.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration // deadline of each write; zero: none

	mu      sync.Mutex
	buf     frameBuf  // frames appended and not yet taken by a writer
	spare   []byte    // the array buf alternates with while one is being written
	writing bool      // a goroutine is the writer: it has, or is about to take, the buffer
	stalled int       // goroutines waiting in flushLocked for the writer (back-pressure)
	done    sync.Cond // on mu: the writer has left
	err     error     // the first write error, or what fail recorded

	// owned: a goroutine has undertaken to write the buffer out — a
	// session's reader, while it runs (server2.go) — so an appender leaves
	// its frame there. While it is unset (the reader is blocked or gone; a
	// client's connection has no such goroutine at all) an appender writes
	// for itself, and a writer goes on until the buffer is empty.
	owned atomic.Bool
}

// init readies w, which must not have been used, to write to conn.
func (w *connWriter) init(conn net.Conn) {
	w.conn = conn
	w.done.L = &w.mu
}

// flushLocked writes the buffered frames out, unless a goroutine is
// doing that already: then they are left to it — but past wbufLimit
// nobody leaves frames to a writer that is not getting anywhere, they
// wait for it, which bounds the backlog of a peer that has stopped
// reading. Caller holds mu, which flushLocked may release and retake.
//
//granulint:hotpath
func (w *connWriter) flushLocked() {
	for w.writing {
		if len(w.buf.b) < wbufLimit {
			return
		}
		w.stalled++
		w.done.Wait()
		w.stalled--
	}
	w.writeLocked(false)
}

// writeLocked makes the caller the connection's writer. mu is not held
// across a write — on a busy connection that would park every other
// goroutine with a frame for it, a session's own reader included — so
// the writer takes the buffer, writes with mu released, and before it
// leaves writes out again whatever arrived meanwhile, unless the buffer
// has an owner to do that. With yield it first gives up the processor
// for one scheduler round, the writer already: the goroutines about to
// append — runnable but, on few CPUs, not yet run — find it at work and
// leave it their frames, where each would have paid a write of its own.
// One write deadline covers a whole batch: each SetWriteDeadline
// modifies a runtime poll timer, and per frame that churn would
// outweigh the write. A failed or timed-out write ends the connection:
// it is closed, and its reader's next read fails. Caller holds mu and
// has seen that nobody is writing.
//
//granulint:hotpath
func (w *connWriter) writeLocked(yield bool) {
	w.writing = true
	if yield {
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
	}
	for len(w.buf.b) > 0 && w.err == nil {
		out := w.buf.b
		w.buf.b = w.spare[:0]
		w.mu.Unlock()
		if w.timeout > 0 {
			w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		}
		_, err := w.conn.Write(out)
		w.mu.Lock()
		w.spare = out[:0]
		if err != nil {
			w.err = err
			w.conn.Close()
		}
		if w.owned.Load() {
			break // the owner writes the rest
		}
	}
	w.writing = false
	w.done.Broadcast()
}

// appended completes an append to buf and reports the connection's
// write error, if it has failed. A frame goes out with whoever is
// writing, or with the buffer's owner; with neither, its producer
// becomes the writer — yielding first when the caller says that more
// frames may be about to join this one. Caller holds mu; appended
// releases it.
//
//granulint:hotpath
func (w *connWriter) appended(yield bool) error {
	switch {
	case w.err != nil:
		w.buf.b = w.buf.b[:0] // the connection is dead: nobody to write to
	case len(w.buf.b) >= wbufLimit:
		w.flushLocked()
	case !w.writing && !w.owned.Load():
		w.writeLocked(yield)
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// flush writes out what is buffered, unless a writer is at work.
//
//granulint:hotpath
func (w *connWriter) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// release is called by the buffer's owner before it may block: from now
// on an appender writes for itself, and what is buffered is written
// out. The mark comes first, under mu: a frame appended while this
// flush has mu released for its write is then the flush's own to write
// (an unowned buffer's writer goes round again) — marked afterwards, it
// would be nobody's.
//
//granulint:hotpath
func (w *connWriter) release() {
	w.mu.Lock()
	w.owned.Store(false)
	w.flushLocked()
	w.mu.Unlock()
}

// own ends release's period: the owner is running again and will write
// out what accumulates. It takes no lock: an appender that still sees
// the buffer unowned merely writes once more.
func (w *connWriter) own() { w.owned.Store(true) }

// fail makes every later append a no-op: the connection is dead.
func (w *connWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// quiesce waits out a writer at work, so that the connection is not
// closed under it.
func (w *connWriter) quiesce() {
	w.mu.Lock()
	for w.writing {
		w.done.Wait()
	}
	w.mu.Unlock()
}
