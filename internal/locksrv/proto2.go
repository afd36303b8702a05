package locksrv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// errBadFrame is the connection-fatal framing failure; readFrame wraps
// it with the offending length. It chains to ErrMalformedReply so
// callers match the taxonomy with errors.Is.
var errBadFrame = fmt.Errorf("%w: bad frame length", ErrMalformedReply)

// The wire protocol: length-prefixed binary frames with request ids, so
// requests pipeline and responses may return out of order. A client
// announces itself by sending the 4-byte magic "GLK2" immediately after
// connecting; the server closes a connection that opens with anything
// else. After the magic, the connection carries nothing but frames in
// both directions:
//
//	uint32 BE  payload length (not counting these 4 bytes)
//	byte       op (request) or status (response)
//	uint64 BE  request id, echoed verbatim in the response
//	...        op-specific body
//
// The header is fixed-width — no varints — so framing never depends on
// body contents and a reader can skip a frame it does not understand.
// Bodies use fixed-width big-endian integers throughout; only the
// "stats" response carries JSON (the stats schema changes more often
// than the hot-path ops).
//
// See docs/LOCKSRV.md for the full layout of every op.
const protoMagic = "GLK2"

// Request ops.
const (
	opAcquire  = 1 // txn(8) timeout_ms(8) n(4) then n × (granule(8) mode(1))
	opRelease  = 2 // txn(8)
	opStats    = 3 // empty body
	opAcquireN = 4 // k(4) then k × acquire bodies
	opReleaseN = 5 // k(4) then k × txn(8)
	opLease    = 6 // lease(8) k(4) then k × (txn(8) n(4) n × (granule(8) mode(1)))
)

// Response statuses: the machine-readable error taxonomy of the
// protocol (an error frame's body is the human-readable detail; the
// client maps each status to a typed error in replyErr). statusOK
// covers batch responses too: the frame succeeded even when individual
// sub-ops failed (their statuses travel in the body).
const (
	statusOK         = 0
	statusTimeout    = 1 // the acquire's timeout_ms expired before the grant
	statusClosed     = 2 // the session or server is shutting down
	statusNotOwner   = 3 // release of a transaction granted on another session
	statusBadRequest = 4 // malformed body, or misuse such as a second conservative claim
	statusUnknownOp  = 5 // unrecognized op byte
	// statusRedirect: the granule set is served by another cluster node.
	// The body is the redirect detail "node addr" (decimal ring index, a
	// space, then the node's dial address) — text, so it travels equally
	// in an error frame and a batch sub-item message.
	statusRedirect = 6
	// statusLeaseExpired: a lease re-assert arrived after the recovery
	// window sealed, or the asserted grants conflict with grants already
	// reconstructed — the transaction's locks are gone.
	statusLeaseExpired = 7
	// statusUnavailable: the server could not durably journal the grant
	// (WithJournal); the claim was withdrawn and the caller may retry it.
	statusUnavailable = 8
)

// frameHeader is the fixed header length after the 4-byte length prefix:
// op/status byte plus the 8-byte request id.
const frameHeader = 1 + 8

// maxFrame bounds a frame payload so a corrupt or hostile length prefix
// cannot make a reader allocate unbounded memory.
const maxFrame = 4 << 20

// frameBuf is a buffer frames are built in or read into: a pooled,
// reusable one holds a single frame, a connection's write buffer
// (connWriter) the frames not yet written out, one after another. Every
// frame begins with its length prefix, so finished frames are written to
// the connection as they stand.
type frameBuf struct {
	b    []byte
	off  int // where the frame being built begins
	uses int
}

// frameBufUses is how many frames a pooled buffer carries before it is
// left to the collector: like the parked-acquire records
// (parkedRecordUses), and for the uncontended service, where next to
// nothing parks — two buffer objects per 512 frames, about six frames
// to an acquire/release pair.
const frameBufUses = 512

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 256)} }}

//granulint:hotpath
func getFrame() *frameBuf { return framePool.Get().(*frameBuf) }

//granulint:hotpath
func putFrame(f *frameBuf) {
	if f.uses++; f.uses >= frameBufUses {
		return
	}
	f.b = f.b[:0]
	framePool.Put(f)
}

// start begins a frame with the given op/status and request id after
// what the buffer already holds, leaving the length prefix to be patched
// by finish.
//
//granulint:hotpath
func (f *frameBuf) start(op byte, id uint64) {
	f.off = len(f.b)
	f.b = append(f.b, 0, 0, 0, 0, op)
	f.b = binary.BigEndian.AppendUint64(f.b, id)
}

// finish patches the length prefix; the frame is ready to write.
//
//granulint:hotpath
func (f *frameBuf) finish() {
	binary.BigEndian.PutUint32(f.b[f.off:], uint32(len(f.b)-f.off-4))
}

// bytes returns the wire form (length prefix included).
//
//granulint:hotpath
func (f *frameBuf) bytes() []byte { return f.b }

//granulint:hotpath
func (f *frameBuf) appendU64(v uint64) { f.b = binary.BigEndian.AppendUint64(f.b, v) }

//granulint:hotpath
func (f *frameBuf) appendU32(v uint32) { f.b = binary.BigEndian.AppendUint32(f.b, v) }

//granulint:hotpath
func (f *frameBuf) appendByte(v byte) { f.b = append(f.b, v) }

//granulint:hotpath
func (f *frameBuf) appendBytes(p []byte) {
	f.b = append(f.b, p...)
}

//granulint:hotpath
func (f *frameBuf) appendString(s string) { f.b = append(f.b, s...) }

// readFrame reads one frame into a pooled frameBuf. On success the
// returned body aliases the frameBuf; the caller must putFrame it when
// done. A torn frame (short header, short payload, oversized length)
// returns an error — connection-fatal, as framing is lost.
//
//granulint:hotpath
func readFrame(r *bufio.Reader) (fb *frameBuf, op byte, id uint64, body []byte, err error) {
	// The length prefix is peeked, not read into a local array: that
	// array would escape to the heap through the io.Reader interface,
	// once per frame. No pooled buffer is taken until the prefix is
	// there — this is where a session's reader blocks, and a buffer held
	// across the wait comes back to the pool on another P.
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a torn prefix
		}
		return nil, 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = r.Discard(4) // cannot fail: the four bytes are buffered
	if n < frameHeader || n > maxFrame {
		//granulint:ignore hotpath connection-fatal cold branch; framing is already lost, the caller tears the conn down
		return nil, 0, 0, nil, fmt.Errorf("%w %d", errBadFrame, n)
	}
	fb = getFrame()
	fb.b = slices.Grow(fb.b[:0], int(n))[:n]
	if _, err = io.ReadFull(r, fb.b); err != nil {
		putFrame(fb)
		return nil, 0, 0, nil, err
	}
	op = fb.b[0]
	id = binary.BigEndian.Uint64(fb.b[1:9])
	return fb, op, id, fb.b[frameHeader:], nil
}

// frameReader is a cursor over a frame body for fixed-width decoding.
type frameReader struct {
	b   []byte
	off int
	bad bool
}

//granulint:hotpath
func (r *frameReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

//granulint:hotpath
func (r *frameReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

//granulint:hotpath
func (r *frameReader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

//granulint:hotpath
func (r *frameReader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// left is the number of unread body bytes. Decoders bound every element
// count they read by it before allocating, so a body cannot make the
// server allocate more than a small multiple of its own length.
//
//granulint:hotpath
func (r *frameReader) left() int { return len(r.b) - r.off }

// done reports whether the body was consumed exactly and without
// overruns — trailing garbage is as malformed as a short body.
//
//granulint:hotpath
func (r *frameReader) done() bool { return !r.bad && r.off == len(r.b) }
