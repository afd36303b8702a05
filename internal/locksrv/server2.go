package locksrv

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
)

// v2MaxInflight caps how many requests one v2 session may have
// executing at once. The cap bounds executor goroutines per connection;
// excess frames wait in the read loop, which is exactly the
// back-pressure a pipelining client expects.
const v2MaxInflight = 256

// v2Work is one decoded request frame awaiting execution.
type v2Work struct {
	fb   *frameBuf
	op   byte
	id   uint64
	body []byte
}

// execWorker is one pooled executor goroutine's inbox.
type execWorker struct {
	ch chan v2Work
}

// handle runs one session: a reader that decodes frames and dispatches
// each to a pooled executor goroutine (capped at v2MaxInflight per
// session), and a single writer that drains completed responses,
// coalescing them into few syscalls by flushing only when the response
// queue goes idle. Responses therefore return out of order, matched to
// requests by id. Because reading and executing are separate
// goroutines, the reader notices a disconnect while executors are
// parked in blocking acquires and cancels them at once. Transactions
// granted on this session are tracked and force-released when it ends,
// however it ends.
//
// Executors are recycled rather than spawned per frame: a fresh
// goroutine starts with a minimal stack that the execute call chain
// immediately has to grow, and at service request rates those stack
// copies show up as a top-five CPU item. A worker that has run once
// keeps its grown stack for the rest of the session.
func (s *Server) handle(ctx context.Context, sess *session) {
	defer s.wg.Done()
	conn := sess.conn
	owned := newOwnedSet()
	var pending atomic.Int64 // requests decoded but not yet responded to
	sr := &sessionReader{s: s, conn: conn, pending: &pending}
	br := bufio.NewReader(sr)
	defer s.teardown(sess, owned)

	var magic [len(protoMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != protoMagic {
		if sr.reaped {
			s.om.idleReaps.Inc()
		}
		return // never spoke the protocol: close without a reply
	}
	s.om.v2Sessions.Inc()

	respCh := make(chan *frameBuf, v2MaxInflight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		// The write deadline is armed once per batch, not per frame:
		// each SetWriteDeadline modifies a runtime poll timer, and at
		// pipelined frame rates that churn outweighs the writes
		// themselves. One deadline covering the whole batch bounds a
		// stalled client just as well.
		armed := false
		for fb := range respCh {
			if s.writeTimeout > 0 && !armed {
				conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
				armed = true
			}
			_, err := bw.Write(fb.bytes())
			putFrame(fb)
			pending.Add(-1)
			s.inflight.Add(-1)
			if err != nil {
				return
			}
			s.om.framesWritten.Inc()
			// Flush on idle: as long as more responses are queued, keep
			// filling the buffer; the syscall happens when the pipeline
			// drains (or the buffer fills, via bufio). The yield first is
			// what makes this work on few CPUs: a completing executor
			// hands the scheduler straight to this goroutine, so the
			// queue looks empty while the other executors are runnable
			// but haven't run — give them one scheduler round to enqueue
			// before paying the syscall.
			if len(respCh) == 0 {
				runtime.Gosched()
			}
			if len(respCh) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
				armed = false
			}
		}
		bw.Flush()
	}()

	var execWG sync.WaitGroup
	free := make(chan *execWorker, v2MaxInflight)
	var workers []*execWorker
	spawn := func() *execWorker {
		w := &execWorker{ch: make(chan v2Work)}
		workers = append(workers, w)
		go func() {
			for wk := range w.ch {
				resp := s.executeV2(ctx, sess, wk.op, wk.id, wk.body, owned)
				putFrame(wk.fb)
				select {
				case respCh <- resp:
				case <-writerDone:
					// Writer died on a write error; account for the
					// request ourselves.
					putFrame(resp)
					pending.Add(-1)
					s.inflight.Add(-1)
				}
				execWG.Done()
				free <- w // cap == max workers: never blocks
			}
		}()
		return w
	}
readLoop:
	for {
		fb, op, id, body, err := readFrame(br)
		if err != nil {
			if sr.reaped {
				s.om.idleReaps.Inc()
				sess.shutdown()
			} else if !s.draining() {
				// Real disconnect or torn frame: framing is lost either
				// way, so the session ends and teardown releases its
				// grants. Under drain, in-flight requests get the grace
				// period instead.
				sess.shutdown()
			}
			break
		}
		s.om.framesRead.Inc()
		pending.Add(1)
		s.inflight.Add(1)
		var w *execWorker
		select {
		case w = <-free:
		default:
			if len(workers) < v2MaxInflight {
				w = spawn()
			} else {
				// Pipeline saturated: wait for an executor, or for the
				// session to be condemned.
				select {
				case w = <-free:
				case <-ctx.Done():
					putFrame(fb)
					pending.Add(-1)
					s.inflight.Add(-1)
					break readLoop
				}
			}
		}
		execWG.Add(1)
		w.ch <- v2Work{fb: fb, op: op, id: id, body: body}
	}
	execWG.Wait()
	for _, w := range workers {
		close(w.ch)
	}
	close(respCh)
	<-writerDone
	// If the writer exited on error, queued responses were never
	// consumed; settle their accounting.
	for fb := range respCh {
		putFrame(fb)
		pending.Add(-1)
		s.inflight.Add(-1)
	}
}

// executeV2 performs one v2 request and returns its response frame
// (pooled; ownership passes to the caller).
func (s *Server) executeV2(ctx context.Context, sess *session, op byte, id uint64, body []byte, owned *ownedSet) *frameBuf {
	switch op {
	case opAcquire:
		fr := frameReader{b: body}
		txn, reqs, timeoutMS := parseAcquireBody(&fr)
		if !fr.done() {
			return replyFrame(id, statusBadRequest, "malformed acquire body")
		}
		st, msg := s.acquireCore(ctx, sess, txn, reqs, timeoutMS, owned)
		return replyFrame(id, st, msg)
	case opRelease:
		fr := frameReader{b: body}
		txn := lockmgr.TxnID(fr.u64())
		if !fr.done() {
			return replyFrame(id, statusBadRequest, "malformed release body")
		}
		st, msg := s.releaseCore(ctx, sess, txn, owned)
		return replyFrame(id, st, msg)
	case opStats:
		if len(body) != 0 {
			return replyFrame(id, statusBadRequest, "stats takes no body")
		}
		ls := s.table.Stats()
		ss := s.serverStats()
		payload, err := json.Marshal(statsReply{Stats: &ls, Server: &ss})
		if err != nil {
			return replyFrame(id, statusBadRequest, err.Error())
		}
		fb := getFrame()
		fb.start(statusOK, id)
		fb.appendBytes(payload)
		fb.finish()
		return fb
	case opAcquireN:
		return s.executeAcquireN(ctx, sess, id, body, owned)
	case opReleaseN:
		return s.executeReleaseN(ctx, sess, id, body, owned)
	case opLease:
		return s.executeLease(ctx, sess, id, body, owned)
	default:
		return replyFrame(id, statusUnknownOp, "unknown op")
	}
}

// executeLease processes a lease assert: per-transaction grant
// refresh/reconstruction (see leaseCore), answered as a batch frame.
// Items run sequentially — leaseCore never parks on a lock queue, so
// one item cannot starve the rest the way a blocked acquire could.
func (s *Server) executeLease(ctx context.Context, sess *session, id uint64, body []byte, owned *ownedSet) *frameBuf {
	fr := frameReader{b: body}
	fr.u64() // lease id: carried for observability, no fencing use yet
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		return replyFrame(id, statusBadRequest, "malformed lease count")
	}
	type item struct {
		txn  lockmgr.TxnID
		reqs []lockmgr.Request
	}
	items := make([]item, 0, k)
	for i := uint32(0); i < k; i++ {
		txn := lockmgr.TxnID(fr.u64())
		n := fr.u32()
		if fr.bad || n > uint32(fr.left()/9) {
			return replyFrame(id, statusBadRequest, "malformed lease body")
		}
		reqs := make([]lockmgr.Request, 0, n)
		for j := uint32(0); j < n; j++ {
			g := lockmgr.Granule(fr.u64())
			mode := lockmgr.ModeShared
			if fr.byte() != 0 {
				mode = lockmgr.ModeExclusive
			}
			reqs = append(reqs, lockmgr.Request{Granule: g, Mode: mode})
		}
		items = append(items, item{txn, reqs})
	}
	if !fr.done() {
		return replyFrame(id, statusBadRequest, "malformed lease body")
	}
	s.om.batchOps.Add(int64(k))
	sts := make([]byte, k)
	msgs := make([]string, k)
	for i := range items {
		sts[i], msgs[i] = s.leaseCore(ctx, sess, items[i].txn, items[i].reqs, owned)
	}
	return batchFrame(id, sts, msgs)
}

// parseAcquireBody decodes one acquire body (txn, timeout, granule+mode
// list) from the cursor; used both standalone and inside acquireN.
func parseAcquireBody(fr *frameReader) (lockmgr.TxnID, []lockmgr.Request, int64) {
	txn := lockmgr.TxnID(fr.u64())
	timeoutMS := int64(fr.u64())
	n := fr.u32()
	if fr.bad || n > uint32(fr.left()/9) {
		fr.bad = true
		return txn, nil, timeoutMS
	}
	reqs := make([]lockmgr.Request, 0, n)
	for i := uint32(0); i < n; i++ {
		g := lockmgr.Granule(fr.u64())
		mode := lockmgr.ModeShared
		if fr.byte() != 0 {
			mode = lockmgr.ModeExclusive
		}
		reqs = append(reqs, lockmgr.Request{Granule: g, Mode: mode})
	}
	return txn, reqs, timeoutMS
}

// executeAcquireN runs the sub-claims of a batch concurrently — they
// are independent transactions, and running them serially would let one
// blocked claim starve the rest of the batch — and responds once with
// every sub-result. The frame-level status is OK; per-item statuses and
// messages travel in the body.
func (s *Server) executeAcquireN(ctx context.Context, sess *session, id uint64, body []byte, owned *ownedSet) *frameBuf {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		return replyFrame(id, statusBadRequest, "malformed acquireN count")
	}
	type sub struct {
		txn       lockmgr.TxnID
		reqs      []lockmgr.Request
		timeoutMS int64
	}
	subs := make([]sub, 0, k)
	for i := uint32(0); i < k; i++ {
		txn, reqs, timeoutMS := parseAcquireBody(&fr)
		subs = append(subs, sub{txn, reqs, timeoutMS})
	}
	if !fr.done() {
		return replyFrame(id, statusBadRequest, "malformed acquireN body")
	}
	s.om.batchOps.Add(int64(k))
	sts := make([]byte, k)
	msgs := make([]string, k)
	var wg sync.WaitGroup
	for i := range subs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sts[i], msgs[i] = s.acquireCore(ctx, sess, subs[i].txn, subs[i].reqs, subs[i].timeoutMS, owned)
		}()
	}
	wg.Wait()
	return batchFrame(id, sts, msgs)
}

// executeReleaseN releases a batch of transactions sequentially
// (releases never block) and responds with per-item statuses.
func (s *Server) executeReleaseN(ctx context.Context, sess *session, id uint64, body []byte, owned *ownedSet) *frameBuf {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > uint32(fr.left()/8) {
		return replyFrame(id, statusBadRequest, "malformed releaseN count")
	}
	txns := make([]lockmgr.TxnID, 0, k)
	for i := uint32(0); i < k; i++ {
		txns = append(txns, lockmgr.TxnID(fr.u64()))
	}
	if !fr.done() {
		return replyFrame(id, statusBadRequest, "malformed releaseN body")
	}
	s.om.batchOps.Add(int64(k))
	sts := make([]byte, k)
	msgs := make([]string, k)
	for i, txn := range txns {
		sts[i], msgs[i] = s.releaseCore(ctx, sess, txn, owned)
	}
	return batchFrame(id, sts, msgs)
}

// replyFrame builds a plain response frame: the status, and for an
// error the detail message as body.
func replyFrame(id uint64, status byte, msg string) *frameBuf {
	fb := getFrame()
	fb.start(status, id)
	fb.appendBytes([]byte(msg))
	fb.finish()
	return fb
}

// batchFrame builds an acquireN/releaseN response: frame status OK,
// body = k(4) then k × (status(1) msgLen(4) msg).
func batchFrame(id uint64, sts []byte, msgs []string) *frameBuf {
	fb := getFrame()
	fb.start(statusOK, id)
	fb.appendU32(uint32(len(sts)))
	for i, st := range sts {
		fb.appendByte(st)
		fb.appendU32(uint32(len(msgs[i])))
		fb.appendBytes([]byte(msgs[i]))
	}
	fb.finish()
	return fb
}
