package locksrv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fuzzAllocBudget bounds what decoding one input may allocate: a frame
// is at most maxFrame bytes, and no length field inside it may make the
// decoder reserve more than that.
const fuzzAllocBudget = maxFrame + 1<<20

// allocated runs f and returns the bytes the process allocated meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader, the first
// parser every connection's bytes meet. It must never panic, must
// reject a length prefix outside [frameHeader, maxFrame] as a bad frame
// before allocating for it, must report a truncated header or payload
// as an I/O error, and on success must hand back exactly the bytes the
// prefix announced. Seeds: testdata/fuzz/FuzzReadFrame, the frames
// TestFrameCodecRoundTrip, TestReadFrameRejectsOversized and the
// torn-write tests construct, whole and cut short.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var fb *frameBuf
		var op byte
		var id uint64
		var body []byte
		var err error
		br := bufio.NewReader(bytes.NewReader(in))
		if n := allocated(func() { fb, op, id, body, err = readFrame(br) }); n > fuzzAllocBudget {
			t.Fatalf("readFrame allocated %d bytes for a %d-byte input", n, len(in))
		}
		if len(in) < 4 {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated length prefix: err %v", err)
			}
			return
		}
		n := binary.BigEndian.Uint32(in)
		switch {
		case n < frameHeader || n > maxFrame:
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("length %d: err %v, want a bad-frame error", n, err)
			}
		case uint64(len(in)) < 4+uint64(n):
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated frame: err %v", err)
			}
		default:
			if err != nil {
				t.Fatalf("whole frame of length %d rejected: %v", n, err)
			}
			want := in[4 : 4+n]
			if op != want[0] || id != binary.BigEndian.Uint64(want[1:9]) || !bytes.Equal(body, want[frameHeader:]) {
				t.Fatalf("frame decoded as op %d id %#x body %x, want %x", op, id, body, want)
			}
			putFrame(fb)
		}
	})
}

// wellFormedBody is the fuzz oracle: an independent statement of which
// request bodies the wire format admits (docs/LOCKSRV.md), written as
// length arithmetic rather than with the decoder under test.
func wellFormedBody(op byte, b []byte) bool {
	// claims walks k items of: fixed bytes, then n(4) × 9-byte requests.
	claims := func(b []byte, k uint32, fixed int) bool {
		for ; k > 0; k-- {
			if len(b) < fixed+4 {
				return false
			}
			n := uint64(binary.BigEndian.Uint32(b[fixed:]))
			if uint64(len(b)) < uint64(fixed)+4+9*n {
				return false
			}
			b = b[uint64(fixed)+4+9*n:]
		}
		return len(b) == 0
	}
	switch op {
	case opAcquire:
		return claims(b, 1, 16)
	case opRelease:
		return len(b) == 8
	case opStats:
		return len(b) == 0
	case opAcquireN:
		if len(b) < 4 {
			return false
		}
		k := binary.BigEndian.Uint32(b)
		return k >= 1 && k <= v2MaxInflight && claims(b[4:], k, 16)
	case opReleaseN:
		if len(b) < 4 {
			return false
		}
		k := uint64(binary.BigEndian.Uint32(b))
		return k >= 1 && uint64(len(b)) == 4+8*k
	case opLease:
		if len(b) < 12 {
			return false
		}
		k := binary.BigEndian.Uint32(b[8:])
		return k >= 1 && k <= v2MaxInflight && claims(b[12:], k, 8)
	}
	return false
}

// sinkConn is a connection that records what the server writes to it
// and has nothing to read.
type sinkConn struct {
	net.Conn // nil: any method the tests do not expect panics
	mu       sync.Mutex
	buf      bytes.Buffer
	closed   bool
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

func (c *sinkConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// written returns a copy of everything written so far.
func (c *sinkConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.buf.Bytes())
}

// sinkSession returns a session over a sinkConn whose reader counts as
// blocked, so every reply is written out as it is produced.
func sinkSession() (*session, *sinkConn) {
	conn := &sinkConn{}
	sess := newSession(conn)
	sess.w.owned.Store(false)
	return sess, conn
}

// FuzzExecuteV2Body feeds arbitrary op bytes and bodies to the request
// dispatch, as the frame loop would after readFrame: to serve on the
// session reader of a plain, a journaled and a clustered (one-node
// ring) server. Each must never panic or allocate past the frame cap,
// must answer every request with one well-formed response frame under
// the request's id — from a goroutine of its own when the answer waits
// on the journal — and must answer a body the wire format does not
// admit with bad_request (an unknown op with unknown_op). The session
// has begun to end (parkClosed, context cancelled), so a claim that
// would park is answered at once instead. Seeds:
// testdata/fuzz/FuzzExecuteV2Body, one body per op as the protocol and
// batch tests encode them, plus each op's malformed shapes (truncated,
// trailing byte, zero count, a count far beyond the body carrying it).
func FuzzExecuteV2Body(f *testing.F) {
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		if len(body) > maxFrame-frameHeader {
			t.Skip("readFrame never delivers a body this long")
		}
		for _, opts := range [][]ServerOption{
			nil,
			{WithJournal(newMemJournal())},
			{WithCluster(ClusterConfig{Nodes: []string{"127.0.0.1:1"}})},
		} {
			// A fresh server per input: grants left by one input must not
			// change what the next one sees.
			srv := NewServer(nil, nil, opts...)
			sess, conn := sinkSession()
			sess.cancel()
			sess.parkClosed = true
			sess.pending.Add(1)
			const id = 0x0123456789ABCDEF
			if n := allocated(func() { srv.serve(sess, op, id, body) }); n > fuzzAllocBudget {
				t.Fatalf("op %d allocated %d bytes for a %d-byte body", op, n, len(body))
			}
			// A grant waiting on the journal, or a sub-claim refused as
			// already held, is answered from a goroutine of its own; a
			// batch answers when its last item reports.
			for sess.pending.Load() != 0 {
				runtime.Gosched()
			}
			br := bufio.NewReader(bytes.NewReader(conn.written()))
			fb, status, gotID, _, err := readFrame(br)
			if err != nil {
				t.Fatalf("op %d: response is not a frame: %v", op, err)
			}
			defer putFrame(fb)
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("op %d: bytes after the response frame", op)
			}
			if gotID != id {
				t.Fatalf("op %d: response id %#x", op, gotID)
			}
			switch {
			case op < opAcquire || op > opLease:
				if status != statusUnknownOp {
					t.Fatalf("unknown op %d answered status %d", op, status)
				}
			case !wellFormedBody(op, body):
				if status != statusBadRequest {
					t.Fatalf("op %d: malformed %d-byte body answered status %d", op, len(body), status)
				}
			case status > statusUnavailable:
				t.Fatalf("op %d: status %d outside the taxonomy", op, status)
			}
		}
	})
}
