package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrPoisoned is the sentinel a poisoned Log wraps: a previous flush
// failed, so the log can no longer promise durability. FlushError
// matches it via errors.Is.
var ErrPoisoned = errors.New("wal: log poisoned by failed flush")

// ErrClosed is returned by Commit after Close.
var ErrClosed = errors.New("wal: log closed")

// FlushError is the typed error a failed flush delivers to its whole
// cohort (and to every later committer): the batch's records may be
// partially on disk but were never synced, so none of its commits are
// acknowledged.
type FlushError struct {
	// Op is the sink operation that failed: "write" or "sync".
	Op string
	// Cause is the sink's error.
	Cause error
}

func (e *FlushError) Error() string {
	return fmt.Sprintf("wal: flush %s failed: %v", e.Op, e.Cause)
}

func (e *FlushError) Unwrap() error { return e.Cause }

// Is reports ErrPoisoned so callers can match the poisoned state
// without knowing which flush failed first.
func (e *FlushError) Is(target error) bool { return target == ErrPoisoned }

// LogOption configures a Log.
type LogOption func(*logOptions)

type logOptions struct {
	linger      time.Duration
	injector    FaultInjector
	preallocate int64
}

// newLogOptions applies opts over the defaults.
func newLogOptions(opts []LogOption) logOptions {
	o := logOptions{preallocate: defaultPreallocate}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithFlushInterval bounds how long the flusher lingers collecting more
// committers when the queue is non-empty. Zero
// (the default) disables lingering: every flush takes exactly what was
// queued when the flusher woke — immediate when the log is idle, and
// naturally batched under load because commits arriving during the
// previous flush's Sync queue up behind it.
func WithFlushInterval(d time.Duration) LogOption {
	return func(o *logOptions) { o.linger = d }
}

// flushSink is what the flusher needs from a sink: one buffered write
// and one durability barrier per batch.
type flushSink interface {
	Write(p []byte) (int, error)
	Sync() error
}

// nopSync adapts a plain io.Writer (no Sync method) to flushSink.
type nopSync struct {
	w interface{ Write([]byte) (int, error) }
}

func (n nopSync) Write(p []byte) (int, error) { return n.w.Write(p) }
func (n nopSync) Sync() error                 { return nil }

// Log is a group-commit pipeline over one sink. Commit enqueues a
// transaction's records and parks until a background flusher has made
// them durable; the flusher coalesces everything queued since the last
// flush into one buffered write plus one Sync and wakes the whole
// cohort. When the log is idle a lone commit flushes immediately; under
// load, batching emerges because arrivals during a flush queue up
// behind it (optionally widened by WithFlushInterval).
//
// A failed flush poisons the log: the waiting cohort and every later
// Commit receive a *FlushError (matching ErrPoisoned); an unsynced
// commit is never acknowledged.
type Log struct {
	sink   flushSink
	linger time.Duration

	// ioMu serializes flush I/O with Truncate's file surgery. The
	// flusher holds it across write+sync; Truncate holds it while
	// rewriting the file. Never held together with mu.
	ioMu sync.Mutex

	mu      sync.Mutex
	flushed sync.Cond // broadcast when durable or err advances
	queue   []Record  // records enqueued since the last flusher pickup
	enq     int64     // records ever enqueued (incl. base)
	durable int64     // records durably flushed (incl. base)
	base    int64     // sequence number the sink already held at open
	err     error     // poison: first flush failure, sticky
	closed  bool

	wake chan struct{} // capacity 1: nudges the flusher
	done chan struct{} // closed when the flusher exits
}

// NewLog returns a group-commit Log over sink and starts its flusher.
// If sink has a Sync method it is called once per flush; otherwise
// flushes are write-only (useful for in-memory tests). Close releases
// the flusher. Of the options only WithFlushInterval applies: the
// preallocation and the fault injector belong to the file sink of
// OpenFile and OpenDir.
func NewLog(sink interface{ Write([]byte) (int, error) }, opts ...LogOption) *Log {
	fs, ok := sink.(flushSink)
	if !ok {
		fs = nopSync{w: sink}
	}
	return newLogAt(fs, 0, 0, newLogOptions(opts))
}

// newLogAt is the one Log constructor: base is the physical truncation
// base recorded in a file sink's header, seq the durable sequence
// number at the logical end (base + intact records); appends continue
// from seq.
func newLogAt(sink flushSink, base, seq int64, o logOptions) *Log {
	l := &Log{
		sink:    sink,
		linger:  o.linger,
		base:    base,
		enq:     seq,
		durable: seq,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	l.flushed.L = &l.mu
	go l.flusher()
	return l
}

// Commit enqueues rs as one contiguous group and blocks until every
// record is durable (the flusher's Sync returned) or the log fails.
// It returns nil only after durability; on a flush failure every waiter
// gets the poisoning *FlushError.
func (l *Log) Commit(rs []Record) error {
	if len(rs) == 0 {
		return nil
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.queue = append(l.queue, rs...)
	l.enq += int64(len(rs))
	target := l.enq
	l.mu.Unlock()

	// Nudge the flusher (non-blocking: one pending nudge is enough).
	select {
	case l.wake <- struct{}{}:
	default:
	}

	l.mu.Lock()
	for l.durable < target && l.err == nil {
		l.flushed.Wait()
	}
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return nil
}

// flusher is the single background goroutine that turns queued commits
// into batched sink writes.
func (l *Log) flusher() {
	defer close(l.done)
	var buf []byte
	for {
		<-l.wake

		l.mu.Lock()
		// Optional linger: with a non-empty queue, wait a beat so more
		// committers can join this flush.
		if l.linger > 0 && len(l.queue) > 0 && !l.closed {
			l.mu.Unlock()
			time.Sleep(l.linger)
			l.mu.Lock()
		}
		batch := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()

		if len(batch) == 0 {
			if closed {
				return
			}
			continue
		}

		// One buffered write + one Sync for the whole cohort.
		need := len(batch) * recordSize
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		for i, r := range batch {
			r.marshal(buf[i*recordSize : (i+1)*recordSize])
		}
		l.ioMu.Lock()
		var ferr *FlushError
		if _, err := l.sink.Write(buf); err != nil {
			ferr = &FlushError{Op: "write", Cause: err}
		} else if err := l.sink.Sync(); err != nil {
			ferr = &FlushError{Op: "sync", Cause: err}
		}
		l.ioMu.Unlock()

		l.mu.Lock()
		if ferr != nil {
			l.err = ferr
			l.flushed.Broadcast()
			l.mu.Unlock()
			return
		}
		l.durable += int64(len(batch))
		l.flushed.Broadcast()
		done := l.closed && len(l.queue) == 0
		l.mu.Unlock()
		if done {
			return
		}
	}
}

// Close stops the flusher after draining queued records. It returns the
// poison error if the log failed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		<-l.done
		return err
	}
	l.closed = true
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	<-l.done
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if c, ok := l.sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Seq returns the durable sequence number: the count of records (since
// the log's creation, including any base carried over a truncation)
// whose durability has been acknowledged.
func (l *Log) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Base returns the sequence number of the first record physically
// present in the sink (non-zero after a truncation).
func (l *Log) Base() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Err returns the poison error, or nil if the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Truncate drops the physical log prefix up to and including sequence
// number seq (records 1..seq), typically after a snapshot covering seq
// has been installed. Only file-backed logs support it. The log keeps
// counting sequence numbers from where it was: Base becomes seq.
func (l *Log) Truncate(seq int64) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if seq > l.durable {
		d := l.durable
		l.mu.Unlock()
		return fmt.Errorf("wal: truncate to %d beyond durable %d", seq, d)
	}
	if seq <= l.base {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	fs, ok := l.sink.(*fileSink)
	if !ok {
		return errors.New("wal: sink does not support truncation")
	}

	l.ioMu.Lock()
	err := fs.truncateTo(seq)
	l.ioMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.mu.Lock()
	l.base = seq
	l.mu.Unlock()
	return nil
}
