package locksrv

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
)

// v2MaxInflight caps how many requests one v2 session may have
// unanswered at once: claims parked in the lock table plus requests on
// executors. Excess frames wait in the read loop, which is exactly the
// back-pressure a pipelining client expects.
const v2MaxInflight = 256

// scratchReqsMax bounds the request-decode scratch a session keeps
// between frames, so one huge claim does not pin its memory for the
// life of the connection.
const scratchReqsMax = 1024

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

// handle runs one session to completion on one goroutine. The reader
// decodes a frame and, when nothing but the lock table can make the
// request wait (serveInline), executes it right there and appends the
// reply to the session's write buffer (connWriter): no hand-off to an
// executor, none to a writer. A claim that must wait is parked in the
// table as a continuation (parkedAcquire), not as a goroutine; the
// release that resolves it — usually on another session's reader —
// finishes the acquire and appends its reply to this session's buffer.
// Responses therefore return out of order, matched to requests by id,
// while the requests of one connection that do not wait are served in
// arrival order.
//
// Requests that can wait on something else — a journal flush before
// the acknowledgement (group commit needs them concurrent), a cluster
// recovery window, another session's teardown, a batch — go to pooled
// executor goroutines, which answer through the same write buffer.
// Executors are recycled rather than spawned per frame: a fresh
// goroutine starts with a minimal stack that the execute call chain
// immediately has to grow, and at service request rates those stack
// copies show up as a top-five CPU item. A worker that has run once
// keeps its grown stack for the rest of the session.
//
// The reader writes the buffered replies out twice per burst of
// requests, whatever its size: when it has decoded half of what its
// last read returned, and before any read that may block
// (sessionReader). Writing only before a blocking read makes the fewest
// syscalls, but each connection's pipelined callers then fall into
// lockstep — all wait for one write, all send at once, the server idle
// meanwhile; the write at half gives the client's reader and callers
// the first half to work on while the server finishes the second. A
// lone request is half and end at once.
//
// Transactions granted on this session are tracked and force-released
// when it ends, however it ends.
func (s *Server) handle(sess *session) {
	defer s.wg.Done()
	sr := &sessionReader{s: s, sess: sess}
	br := bufio.NewReader(sr)
	defer s.teardown(sess)

	var magic [len(protoMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != protoMagic {
		if sr.reaped {
			s.om.idleReaps.Inc()
		}
		return // never spoke the protocol: close without a reply
	}
	s.om.v2Sessions.Inc()

	free := make(chan *execWorker, v2MaxInflight)
	var workers []*execWorker
	spawn := func() *execWorker {
		w := &execWorker{ch: make(chan v2Work)}
		workers = append(workers, w)
		go func() {
			for wk := range w.ch {
				s.execute(sess, wk.op, wk.id, wk.body)
				putFrame(wk.fb)
				free <- w // cap == max workers: never blocks
			}
		}()
		return w
	}
	for {
		// Half of the last read is decoded: write its replies out. (With
		// nothing left to decode, the read below does that.)
		if left := br.Buffered(); left > 0 && left <= sr.burst/2 {
			sr.burst = 0
			sess.w.flush()
		}
		fb, op, id, body, err := readFrame(br)
		if err != nil {
			if sr.reaped {
				s.om.idleReaps.Inc()
			}
			if sr.reaped || !s.draining() {
				// Real disconnect, torn frame or idle reap: framing is
				// lost or nobody is listening, so the session ends, what
				// it still has parked is withdrawn unanswered and
				// teardown releases its grants. Under drain, unanswered
				// requests get the grace period instead.
				sess.shutdown()
				sess.w.fail(err)
			}
			break
		}
		s.om.framesRead.Inc()
		if sess.pending.Load() >= v2MaxInflight {
			// Pipeline saturated: wait for an answer to go out, or for
			// the session to be condemned.
			ok := s.awaitPending(sess, v2MaxInflight, sess.ctx.Done())
			sess.w.own()
			if !ok {
				putFrame(fb)
				break
			}
		}
		sess.pending.Add(1)
		if s.serveInline(sess, op, id, body) {
			putFrame(fb)
			continue
		}
		var w *execWorker
		select {
		case w = <-free:
		default:
			if len(workers) < v2MaxInflight {
				w = spawn()
			} else {
				// Every worker answered (pending is under the cap) but
				// one has yet to put itself back: it is about to.
				w = <-free
			}
		}
		w.ch <- v2Work{fb: fb, op: op, id: id, body: body}
	}
	// No more requests. Wait for the unanswered ones: until the session
	// is condemned (forced drain; at once for a disconnect), then
	// withdraw what is still parked and wait out the continuations and
	// executors already running — a grant recorded after teardown's
	// sweep would strand its locks.
	if !s.awaitPending(sess, 1, sess.ctx.Done()) {
		s.cancelParked(sess)
		s.awaitPending(sess, 1, nil)
	}
	for _, w := range workers {
		close(w.ch)
	}
	// Every request is answered, but the last replies may have been left
	// to a goroutine that is still writing: let it finish before
	// teardown closes the connection under it.
	sess.w.quiesce()
}

// awaitPending sleeps the session's own goroutine until fewer than n
// requests are unanswered, or done closes (reported as false). It gives
// up the write buffer: the caller takes it back (own), or is finished
// with reading for good.
func (s *Server) awaitPending(sess *session, n int64, done <-chan struct{}) bool {
	sess.w.release()
	sess.waiting.Store(true)
	defer sess.waiting.Store(false)
	for sess.pending.Load() >= n {
		select {
		case <-sess.wake:
		case <-done:
			return false
		}
	}
	return true
}

// sent completes a reply just appended to the session's write buffer:
// the writer's policy, then the request's accounting — in that order: a
// session whose requests are all accounted for may be torn down, and
// its last reply must be on the wire by then. A reply that nobody else
// will write out waits one scheduler round when the session has other
// requests unanswered: their replies may be about to join it — the
// cohort a journal flush just released, the sub-claims of a batch.
// Caller holds the writer's mutex; sent releases it.
//
//granulint:hotpath
func (s *Server) sent(sess *session) {
	if sess.w.err == nil {
		s.om.framesWritten.Inc()
	}
	_ = sess.w.appended(sess.pending.Load() > 1) // a write error ends the session through its reader
	if n := sess.pending.Add(-1); (n == 0 || n == v2MaxInflight-1) && sess.waiting.Load() {
		select {
		case sess.wake <- struct{}{}:
		default:
		}
	}
}

// reply answers request id with a plain response frame: the status,
// and for an error the detail message as body. Any goroutine may call
// it; the frame is encoded straight into the session's write buffer.
//
//granulint:hotpath
func (s *Server) reply(sess *session, id uint64, status byte, msg string) {
	w := &sess.w
	w.mu.Lock()
	w.buf.start(status, id)
	w.buf.appendString(msg)
	w.buf.finish()
	s.sent(sess)
}

// replyFrame answers with a frame built elsewhere (stats, batches),
// which it consumes.
func (s *Server) replyFrame(sess *session, fb *frameBuf) {
	sess.w.mu.Lock()
	sess.w.buf.appendBytes(fb.bytes())
	putFrame(fb)
	s.sent(sess)
}

// lockOnly reports whether nothing but the lock table can make this
// server's acquires and releases wait: it journals no grants and routes
// by no cluster ring.
//
//granulint:hotpath
func (s *Server) lockOnly() bool { return s.journal == nil && s.cluster == nil }

// serveInline is the dispatch predicate and the inline executor in one:
// it runs the request on the calling goroutine — the session's reader —
// when nothing but the lock table can make it wait, and reports false,
// having changed nothing, when the request needs an executor: the
// server journals grants or routes by cluster partition, the op is a
// batch or a lease, or the transaction is entangled with another
// session (a retry racing its predecessor's teardown, or misuse).
//
//granulint:hotpath
func (s *Server) serveInline(sess *session, op byte, id uint64, body []byte) bool {
	if !s.lockOnly() {
		return false
	}
	fr := frameReader{b: body}
	switch op {
	case opAcquire:
		txn, reqs, timeoutMS := parseAcquireBody(&fr, sess.reqs[:0])
		if cap(reqs) <= scratchReqsMax {
			sess.reqs = reqs
		}
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed acquire body")
			return true
		}
		if st, msg := checkAcquire(reqs, timeoutMS); st != statusOK {
			s.reply(sess, id, st, msg)
			return true
		}
		granted, err := s.table.TryAcquireAll(txn, reqs)
		switch {
		case granted:
			st, msg := s.grantNow(sess, txn, reqs)
			s.reply(sess, id, st, msg)
		case err != nil:
			return false // ErrAlreadyHolds: acquireBlocking sorts it out
		default:
			pa := s.getParked(sess, txn, timeoutMS)
			pa.id = id
			s.park(pa, reqs)
		}
		return true
	case opRelease:
		txn := lockmgr.TxnID(fr.u64())
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed release body")
			return true
		}
		if !s.releaseOwned(sess, txn) {
			return false // granted on another session: releaseCore waits it out
		}
		s.reply(sess, id, statusOK, "")
		return true
	case opStats:
		s.replyFrame(sess, s.statsFrame(id, body))
		return true
	}
	return false
}

// execute performs one request on an executor goroutine and answers it
// (a batch of claims may answer later, when its last claim resolves).
func (s *Server) execute(sess *session, op byte, id uint64, body []byte) {
	fr := frameReader{b: body}
	switch op {
	case opAcquire:
		txn, reqs, timeoutMS := parseAcquireBody(&fr, nil)
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed acquire body")
			return
		}
		st, msg := s.acquireCore(sess, txn, reqs, timeoutMS)
		s.reply(sess, id, st, msg)
	case opRelease:
		txn := lockmgr.TxnID(fr.u64())
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed release body")
			return
		}
		st, msg := s.releaseCore(sess, txn)
		s.reply(sess, id, st, msg)
	case opStats:
		s.replyFrame(sess, s.statsFrame(id, body))
	case opAcquireN:
		s.executeAcquireN(sess, id, body)
	case opReleaseN:
		s.replyFrame(sess, s.executeReleaseN(sess, id, body))
	case opLease:
		s.replyFrame(sess, s.executeLease(sess, id, body))
	default:
		s.reply(sess, id, statusUnknownOp, "unknown op")
	}
}

// statsFrame builds the stats response.
func (s *Server) statsFrame(id uint64, body []byte) *frameBuf {
	if len(body) != 0 {
		return errorFrame(id, statusBadRequest, "stats takes no body")
	}
	ls := s.table.Stats()
	ss := s.serverStats()
	payload, err := json.Marshal(statsReply{Stats: &ls, Server: &ss})
	if err != nil {
		return errorFrame(id, statusBadRequest, err.Error())
	}
	fb := getFrame()
	fb.start(statusOK, id)
	fb.appendBytes(payload)
	fb.finish()
	return fb
}

// parkedAcquire is an acquire waiting in the lock table as a
// continuation: what it takes to finish the request once the claim is
// resolved, by whichever goroutine resolves it. Exactly one of three
// things ends it, and the lock table's parked flag decides which: a
// release resolves the claim (resolved), its deadline withdraws it
// (expire), or the end of its session withdraws it (cancelParked).
//
// The record is the whole cost of blocking and is used again: it embeds
// the lock table's claim record — with the table's copy of the requests
// — and owns its deadline timer, and its callbacks are method values
// bound once, resolved when the record is made and expire with the
// timer, at the first deadline. The server takes the record from its
// free list to park and puts it back when the last of the two goroutines
// that may be using it lets go (refs): park itself, which registers the
// claim only after the table call and so possibly after a release has
// already ended it, and the ending, whose last act is answer. What must
// never happen is that a late caller reaches the record's next tenant —
// a Withdraw meant for this claim would end that one. Hence cancelParked
// withdraws under the session's pmu, where a registered record cannot be
// ended by anyone else, and a record whose timer had already fired when
// it was stopped is not used again (fired): its expire may still be on
// the way, and must find its own, resolved claim.
type parkedAcquire struct {
	claim     lockmgr.ParkedClaim
	s         *Server
	sess      *session
	txn       lockmgr.TxnID
	timeoutMS int64
	start     time.Time
	refs      atomic.Int32
	uses      int // acquires carried so far; the last user's to count
	// Guarded by sess.pmu: the deadline timer (nil until the record first
	// parks with one; armed says whether it is set for this claim),
	// whether the claim has left the table's queues — which a release can
	// bring about before park has registered it — and whether Stop found
	// the timer already fired.
	timer    *time.Timer
	armed    bool
	unparked bool
	fired    bool

	// The outcome goes to request id as a reply frame, or, for a
	// sub-claim of an acquireN, into slot idx of its batch.
	id    uint64
	batch *batchReply
	idx   int
}

// parkedFreeMax bounds the server's free list of parkedAcquire records:
// two full sessions' worth.
const parkedFreeMax = 2 * v2MaxInflight

// parkedRecordUses is how many acquires a record carries before it is
// left to the collector, for the reason lockmgr retires its pooled
// records (claimRecordUses): a service whose steady state allocates
// exactly nothing is one the repository's frozen benchmark cannot
// report on. The contended service's allocation is a record, its timer
// and its two bound callbacks per parkedRecordUses parks, and the ten
// 20 ms slices of the benchmark's smoke test see it a span refill at a
// time. A record is 448 bytes, 18 to a span of its size class, so 12
// uses refill one every 216 parks, at ≈45 B per locksrv-hot operation;
// a 616-byte record, 12 to a span, read zero in one of 16 smoke runs
// at 24 uses, a refill every 288 parks.
const parkedRecordUses = 12

// getParked returns a record for one acquire of sess that has to wait,
// from the free list when it has one.
func (s *Server) getParked(sess *session, txn lockmgr.TxnID, timeoutMS int64) *parkedAcquire {
	var pa *parkedAcquire
	s.pfmu.Lock()
	if n := len(s.pfree); n > 0 {
		pa = s.pfree[n-1]
		s.pfree[n-1] = nil
		s.pfree = s.pfree[:n-1]
	}
	s.pfmu.Unlock()
	if pa == nil {
		pa = &parkedAcquire{s: s}
		pa.claim.Resolve = pa.resolved
	}
	pa.sess, pa.txn, pa.timeoutMS, pa.unparked = sess, txn, timeoutMS, false
	pa.refs.Store(2) // park and the ending
	return pa
}

// letGo drops one of the record's two users; the last one recycles it,
// unless a late expire may still look at it.
//
//granulint:hotpath
func (pa *parkedAcquire) letGo() {
	if pa.refs.Add(-1) != 0 || pa.fired {
		return
	}
	if pa.uses++; pa.uses >= parkedRecordUses {
		return
	}
	s := pa.s
	pa.sess, pa.batch = nil, nil
	s.pfmu.Lock()
	if len(s.pfree) < s.pfreeMax {
		s.pfree = append(s.pfree, pa)
	}
	s.pfmu.Unlock()
}

// park queues pa's claim for reqs in the lock table, or finishes the
// acquire at once when the table can decide it after all. The claim is
// registered with its session only after the table call — sess.pmu is
// not held across it, the sessions' readers would convoy on it — so a
// release may resolve the claim before it is registered (unparked says
// so, and nothing is registered), and the session's end may have begun
// meanwhile (the parker then withdraws the claim itself).
//
//granulint:hotpath
func (s *Server) park(pa *parkedAcquire, reqs []lockmgr.Request) {
	sess := pa.sess
	pa.start = time.Now()
	_, claim, err := s.table.AcquireAllAsync(pa.txn, reqs, &pa.claim)
	if claim == nil {
		pa.finish(err, reqs) // granted since the probe, or ErrAlreadyHolds
		pa.letGo()
		return
	}
	sess.pmu.Lock()
	closed := sess.parkClosed
	if !pa.unparked && !closed {
		sess.parked[pa] = struct{}{}
		if pa.timeoutMS > 0 {
			d := time.Duration(pa.timeoutMS) * time.Millisecond
			if pa.timer == nil {
				pa.timer = time.AfterFunc(d, pa.expire)
			} else {
				pa.timer.Reset(d)
			}
			pa.armed = true
		}
	}
	sess.pmu.Unlock()
	if closed && s.table.Withdraw(claim) {
		pa.finish(context.Canceled, claim.Requests())
	}
	pa.letGo()
}

// resolved is the lock table's callback: a release granted the claim,
// or failed it as a duplicate. It runs on the releasing goroutine,
// after that goroutine dropped the table's latch and its owner stripe.
//
//granulint:hotpath
func (pa *parkedAcquire) resolved(err error) {
	pa.sess.pmu.Lock()
	pa.unpark()
	pa.sess.pmu.Unlock()
	pa.finish(err, pa.claim.Requests())
}

// expire is the wait deadline.
func (pa *parkedAcquire) expire() {
	if pa.s.table.Withdraw(&pa.claim) {
		pa.sess.pmu.Lock()
		pa.unpark()
		pa.sess.pmu.Unlock()
		pa.finish(context.DeadlineExceeded, pa.claim.Requests())
	}
}

// unpark forgets a claim that is no longer parked and stops its
// deadline. Caller holds the session's pmu.
//
//granulint:hotpath
func (pa *parkedAcquire) unpark() {
	pa.unparked = true
	delete(pa.sess.parked, pa)
	if pa.armed {
		pa.armed = false
		pa.fired = !pa.timer.Stop()
	}
}

// cancelParked begins the end of a session: nothing parks any more, and
// every claim still parked is withdrawn and answered "closed" (into the
// void, if the connection is dead). A claim a release resolves first is
// finished by that release. The withdrawals happen under pmu: a record
// found registered there has not been ended, and cannot be — every
// ending unparks first — so it is still this session's claim that
// Withdraw reaches.
func (s *Server) cancelParked(sess *session) {
	var buf [16]*parkedAcquire
	withdrawn := buf[:0]
	sess.pmu.Lock()
	sess.parkClosed = true
	for pa := range sess.parked {
		if s.table.Withdraw(&pa.claim) {
			pa.unpark()
			withdrawn = append(withdrawn, pa)
		}
	}
	sess.pmu.Unlock()
	for _, pa := range withdrawn {
		pa.finish(context.Canceled, pa.claim.Requests())
	}
}

// finish completes the acquire of reqs with the claim's outcome and
// answers it.
//
//granulint:hotpath
func (pa *parkedAcquire) finish(err error, reqs []lockmgr.Request) {
	s := pa.s
	if errors.Is(err, lockmgr.ErrAlreadyHolds) {
		// Misuse, or a retry racing its predecessor session's teardown:
		// telling them apart polls, so it takes a goroutine, and a copy of
		// the requests that outlives the caller's scratch. The request
		// stays pending, which keeps the session waiting for it.
		reqs = slices.Clone(reqs)
		//granulint:ignore hotpath a refused claim is misuse or a retry after a transport fault, not the blocking path; its orphan poll sleeps, which a continuation may not
		go func() {
			pa.answer(s.acquireBlocking(pa.sess, pa.txn, reqs, pa.timeoutMS, pa.start))
		}()
		return
	}
	s.recordWait(pa.start)
	pa.answer(s.finishAcquire(pa.sess, pa.txn, reqs, pa.timeoutMS, err))
}

// answer delivers the acquire's status: the ending's last use of the
// record.
//
//granulint:hotpath
func (pa *parkedAcquire) answer(st byte, msg string) {
	if pa.batch != nil {
		pa.batch.set(pa.idx, st, msg)
	} else {
		pa.s.reply(pa.sess, pa.id, st, msg)
	}
	pa.letGo()
}

// executeLease processes a lease assert: per-transaction grant
// refresh/reconstruction (see leaseCore), answered as a batch frame.
// Items run sequentially — leaseCore never parks on a lock queue, so
// one item cannot starve the rest the way a blocked acquire could.
func (s *Server) executeLease(sess *session, id uint64, body []byte) *frameBuf {
	fr := frameReader{b: body}
	fr.u64() // lease id: carried for observability, no fencing use yet
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		return errorFrame(id, statusBadRequest, "malformed lease count")
	}
	type item struct {
		txn  lockmgr.TxnID
		reqs []lockmgr.Request
	}
	items := make([]item, 0, k)
	for i := uint32(0); i < k; i++ {
		txn := lockmgr.TxnID(fr.u64())
		reqs := parseRequests(&fr, nil)
		if fr.bad {
			return errorFrame(id, statusBadRequest, "malformed lease body")
		}
		items = append(items, item{txn, reqs})
	}
	if !fr.done() {
		return errorFrame(id, statusBadRequest, "malformed lease body")
	}
	s.om.batchOps.Add(int64(k))
	sts := make([]byte, k)
	msgs := make([]string, k)
	for i := range items {
		sts[i], msgs[i] = s.leaseCore(sess, items[i].txn, items[i].reqs)
	}
	return batchFrame(id, sts, msgs)
}

// parseAcquireBody decodes one acquire body (txn, timeout, granule+mode
// list) from the cursor, appending the requests to dst; used both
// standalone and inside acquireN.
//
//granulint:hotpath
func parseAcquireBody(fr *frameReader, dst []lockmgr.Request) (lockmgr.TxnID, []lockmgr.Request, int64) {
	txn := lockmgr.TxnID(fr.u64())
	timeoutMS := int64(fr.u64())
	return txn, parseRequests(fr, dst), timeoutMS
}

// parseRequests decodes n(4) then n × (granule(8) mode(1)), appending
// to dst. The count is bounded by the bytes left before anything is
// allocated for it.
//
//granulint:hotpath
func parseRequests(fr *frameReader, dst []lockmgr.Request) []lockmgr.Request {
	n := fr.u32()
	if fr.bad || n > uint32(fr.left()/9) {
		fr.bad = true
		return dst
	}
	dst = slices.Grow(dst, int(n))
	for i := uint32(0); i < n; i++ {
		g := lockmgr.Granule(fr.u64())
		mode := lockmgr.ModeShared
		if fr.byte() != 0 {
			mode = lockmgr.ModeExclusive
		}
		dst = append(dst, lockmgr.Request{Granule: g, Mode: mode})
	}
	return dst
}

// batchReply collects the sub-results of an acquireN by countdown: each
// sub-claim reports once, from whatever goroutine finished it, and the
// last report answers the frame. The frame-level status is OK;
// per-item statuses and messages travel in the body.
type batchReply struct {
	s    *Server
	sess *session
	id   uint64
	sts  []byte
	msgs []string
	left atomic.Int32
}

func (b *batchReply) set(i int, st byte, msg string) {
	b.sts[i], b.msgs[i] = st, msg
	if b.left.Add(-1) == 0 {
		b.s.replyFrame(b.sess, batchFrame(b.id, b.sts, b.msgs))
	}
}

// executeAcquireN starts the sub-claims of a batch — independent
// transactions: run serially, one blocked claim would starve the rest —
// and returns without waiting for them; the batch answers when its
// last sub-claim reports (batchReply). A sub-claim that only the lock
// table can make wait is probed here and parked as a continuation if it
// must; on a server where a grant also waits for the journal or the
// cluster, each runs acquireCore on a goroutine of its own.
func (s *Server) executeAcquireN(sess *session, id uint64, body []byte) {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		s.reply(sess, id, statusBadRequest, "malformed acquireN count")
		return
	}
	type sub struct {
		txn       lockmgr.TxnID
		reqs      []lockmgr.Request
		timeoutMS int64
	}
	subs := make([]sub, 0, k)
	for i := uint32(0); i < k; i++ {
		txn, reqs, timeoutMS := parseAcquireBody(&fr, nil)
		subs = append(subs, sub{txn, reqs, timeoutMS})
	}
	if !fr.done() {
		s.reply(sess, id, statusBadRequest, "malformed acquireN body")
		return
	}
	s.om.batchOps.Add(int64(k))
	b := &batchReply{s: s, sess: sess, id: id, sts: make([]byte, k), msgs: make([]string, k)}
	b.left.Store(int32(k))
	lockOnly := s.lockOnly()
	for i, c := range subs {
		if !lockOnly {
			go func() {
				st, msg := s.acquireCore(sess, c.txn, c.reqs, c.timeoutMS)
				b.set(i, st, msg)
			}()
			continue
		}
		if st, msg := checkAcquire(c.reqs, c.timeoutMS); st != statusOK {
			b.set(i, st, msg)
			continue
		}
		// A refusal (ErrAlreadyHolds) is park's to pass on.
		if granted, _ := s.table.TryAcquireAll(c.txn, c.reqs); granted {
			st, msg := s.grantNow(sess, c.txn, c.reqs)
			b.set(i, st, msg)
			continue
		}
		pa := s.getParked(sess, c.txn, c.timeoutMS)
		pa.batch, pa.idx = b, i
		s.park(pa, c.reqs)
	}
}

// executeReleaseN releases a batch of transactions sequentially
// (releases never block) and responds with per-item statuses.
func (s *Server) executeReleaseN(sess *session, id uint64, body []byte) *frameBuf {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > uint32(fr.left()/8) {
		return errorFrame(id, statusBadRequest, "malformed releaseN count")
	}
	txns := make([]lockmgr.TxnID, 0, k)
	for i := uint32(0); i < k; i++ {
		txns = append(txns, lockmgr.TxnID(fr.u64()))
	}
	if !fr.done() {
		return errorFrame(id, statusBadRequest, "malformed releaseN body")
	}
	s.om.batchOps.Add(int64(k))
	sts := make([]byte, k)
	msgs := make([]string, k)
	for i, txn := range txns {
		sts[i], msgs[i] = s.releaseCore(sess, txn)
	}
	return batchFrame(id, sts, msgs)
}

// errorFrame builds a plain response frame for the paths that return
// one: the status and the detail message as body.
func errorFrame(id uint64, status byte, msg string) *frameBuf {
	fb := getFrame()
	fb.start(status, id)
	fb.appendString(msg)
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
		fb.appendString(msgs[i])
	}
	fb.finish()
	return fb
}
