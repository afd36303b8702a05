package locksrv

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
)

// v2MaxInflight caps how many requests one session may have unanswered
// at once — parked claims and requests waiting on goroutines of their
// own — and so what one client can make the server hold. Excess frames
// wait in the read loop: the back-pressure a pipelining client expects.
// It also caps the items of one batch frame (acquireN, releaseN, lease),
// since each item may wait on a goroutine of its own.
const v2MaxInflight = 256

// scratchReqsMax bounds the request-decode scratch a session keeps
// between frames, so one huge claim does not pin its memory for the
// life of the connection.
const scratchReqsMax = 1024

// handle runs one session to completion on one goroutine, on every
// server: plain, journaled or clustered. The reader decodes a frame,
// executes it right there (serve) and appends the reply to the session's
// write buffer (connWriter): no hand-off to an executor, none to a
// writer. The reader never waits on a request. A claim that waits on the
// lock table is parked in the table as a continuation (parkedAcquire),
// not as a goroutine; the release that resolves it — usually on another
// session's reader — finishes the acquire and appends its reply to this
// session's buffer. A request that waits on anything else — its grant's
// journal flush, a cluster recovery window's seal, the teardown of a
// predecessor session its transaction is still recorded on — gets a
// goroutine of its own for that wait only, which answers through the
// same buffer. Responses therefore return out of order, matched to
// requests by id; the requests of one connection are served in arrival
// order as long as nothing but the lock table makes them wait.
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
		s.serve(sess, op, id, body)
		putFrame(fb)
	}
	// No more requests. Wait for the unanswered ones: until the session
	// is condemned (forced drain; at once for a disconnect), then
	// withdraw what is still parked and wait out the continuations and
	// the waits already running — a grant recorded after teardown's
	// sweep would strand its locks.
	if !s.awaitPending(sess, 1, sess.ctx.Done()) {
		s.cancelParked(sess)
		s.awaitPending(sess, 1, nil)
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

// serve executes one request on the session's reader and answers it —
// or leaves the answer to what the request waits on: the release that
// resolves its parked claim, or the goroutine that waits on its journal
// flush, its recovery window or its predecessor's teardown. Nothing
// that outlives the call points into body.
//
//granulint:hotpath
func (s *Server) serve(sess *session, op byte, id uint64, body []byte) {
	fr := frameReader{b: body}
	switch op {
	case opAcquire:
		txn, reqs, timeoutMS := parseAcquireBody(&fr, sess.reqs[:0])
		if cap(reqs) <= scratchReqsMax {
			sess.reqs = reqs
		}
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed acquire body")
			return
		}
		s.acquire(call{sess: sess, txn: txn, timeoutMS: timeoutMS, id: id}, reqs)
	case opRelease:
		txn := lockmgr.TxnID(fr.u64())
		if !fr.done() {
			s.reply(sess, id, statusBadRequest, "malformed release body")
			return
		}
		s.release(call{sess: sess, txn: txn, id: id})
	case opStats:
		s.replyFrame(sess, s.statsFrame(id, body))
	case opAcquireN:
		s.serveAcquireN(sess, id, body)
	case opReleaseN:
		s.serveReleaseN(sess, id, body)
	case opLease:
		s.serveLease(sess, id, body)
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

// call is one request on its way down its path — an acquire (acquire),
// a release (release) or one transaction of a lease (lease), alone or as
// an item of a batch frame: whose transaction it is, an acquire's wait
// deadline and when it arrived — stamped only once it first waits, so
// that a claim granted at once never reads the clock — and where its
// outcome goes: a reply to request id or, for an item of a batch frame,
// slot idx of its batch (answer).
type call struct {
	sess      *session
	txn       lockmgr.TxnID
	timeoutMS int64
	start     time.Time
	id        uint64
	batch     *batchReply
	idx       int
}

// acquire takes one claim down the path every acquire follows, alone or
// as an acquireN sub-claim, and a claim that waited on something other
// than the lock table comes back to: validate it; route it through the
// cluster ring — a redirect is answered at once, a claim behind an open
// recovery window waits for the seal on a goroutine of its own
// (sideline); ask the lock table, and park the claim if it must wait;
// finish it.
//
//granulint:hotpath
func (s *Server) acquire(a call, reqs []lockmgr.Request) {
	switch {
	case len(reqs) == 0:
		s.answer(a, statusBadRequest, "acquire without granules")
		return
	case a.timeoutMS < 0:
		s.answer(a, statusBadRequest, "negative timeout_ms")
		return
	}
	if s.cluster != nil {
		sealed, st, msg := s.route(reqs, false)
		if st != statusOK {
			s.answer(a, st, msg)
			return
		}
		if sealed != nil {
			s.om.clusterParked.Inc()
			s.sideline(a, reqs, sealed)
			return
		}
	}
	granted, err := s.table.TryAcquireAll(a.txn, reqs)
	if !granted && err == nil {
		s.park(s.getParked(a), reqs)
		return
	}
	s.finish(a, reqs, err)
}

// finish completes acquire a, whose claim for reqs the lock table
// decided with err (nil: granted), on whichever goroutine decided it.
// Two outcomes wait on something else, on a goroutine of their own: a
// grant the journal must make durable first (journalGrant) — so a
// release that resolves a parked claim never waits on the waiter's
// flush — and a refusal because the transaction already holds locks,
// perhaps a retry racing its predecessor's teardown (sideline).
//
//granulint:hotpath
func (s *Server) finish(a call, reqs []lockmgr.Request, err error) {
	if errors.Is(err, lockmgr.ErrAlreadyHolds) {
		s.sideline(a, reqs, nil)
		return
	}
	s.recordWait(a.start)
	if err == nil && s.journal != nil {
		s.journalGrant(a, reqs)
		return
	}
	st, msg := s.settle(a, err)
	s.answer(a, st, msg)
}

// settle records acquire a's outcome err and classifies it: a grant
// becomes the session's, anything else is counted.
func (s *Server) settle(a call, err error) (byte, string) {
	switch {
	case err == nil:
		s.setOwner(a.txn, a.sess)
		s.om.grants.Inc()
		return statusOK, ""
	case errors.Is(err, context.DeadlineExceeded):
		// The per-acquire deadline expired; the claim was withdrawn and
		// the transaction holds nothing.
		s.om.timeouts.Inc()
		return statusTimeout, fmt.Sprintf("acquire timed out after %dms", a.timeoutMS)
	case errors.Is(err, context.Canceled):
		// The session was condemned: disconnect or forced drain.
		s.om.cancels.Inc()
		return statusClosed, "session closed"
	default:
		// Protocol misuse (e.g. a second conservative claim while the
		// first is still held).
		return statusBadRequest, err.Error()
	}
}

// answer delivers call c's status where it goes.
//
//granulint:hotpath
func (s *Server) answer(c call, st byte, msg string) {
	if c.batch != nil {
		c.batch.set(c.idx, st, msg)
		return
	}
	s.reply(c.sess, c.id, st, msg)
}

// release releases everything c's transaction holds and answers, on the
// session's reader. A release whose answer waits — for the journal to
// record it, or for the teardown of a predecessor session the
// transaction is still recorded on — is answered by a goroutine of its
// own (releaseLate).
//
//granulint:hotpath
func (s *Server) release(c call) {
	released := s.releaseOwned(c.sess, c.txn)
	if released && s.journal == nil {
		s.answer(c, statusOK, "")
		return
	}
	s.releaseLate(c, released)
}

// releaseLate answers a release on a goroutine of its own, once
// releaseCore is done with it.
func (s *Server) releaseLate(c call, released bool) {
	go func() {
		st, msg := s.releaseCore(c.sess, c.txn, released)
		s.answer(c, st, msg)
	}()
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
// already ended it, and the ending, whose last act is finish. What must
// never happen is that a late caller reaches the record's next tenant —
// a Withdraw meant for this claim would end that one. Hence cancelParked
// withdraws under the session's pmu, where a registered record cannot be
// ended by anyone else, and a record whose timer had already fired when
// it was stopped is not used again (fired): its expire may still be on
// the way, and must find its own, resolved claim.
type parkedAcquire struct {
	claim lockmgr.ParkedClaim
	s     *Server
	call  // the acquire, and where its outcome goes
	refs  atomic.Int32
	uses  int // acquires carried so far; the last user's to count
	// Guarded by sess.pmu: the deadline timer (nil until the record first
	// parks with one; armed says whether it is set for this claim),
	// whether the claim has left the table's queues — which a release can
	// bring about before park has registered it — and whether Stop found
	// the timer already fired.
	timer    *time.Timer
	armed    bool
	unparked bool
	fired    bool
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

// getParked returns a record for acquire a, which has to wait, from the
// free list when it has one.
func (s *Server) getParked(a call) *parkedAcquire {
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
	pa.call, pa.unparked = a, false
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
	pa.call = call{}
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
// meanwhile (the parker then withdraws the claim itself). The deadline
// counts from the acquire's arrival, which lies before park for a claim
// that waited on a recovery window or a predecessor's teardown first.
//
//granulint:hotpath
func (s *Server) park(pa *parkedAcquire, reqs []lockmgr.Request) {
	sess := pa.sess
	now := time.Now()
	if pa.start.IsZero() {
		pa.start = now
	}
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
			d := time.Duration(pa.timeoutMS)*time.Millisecond - now.Sub(pa.start)
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

// finish completes the acquire with the claim's outcome and lets go of
// the record: the ending's last use of it.
//
//granulint:hotpath
func (pa *parkedAcquire) finish(err error, reqs []lockmgr.Request) {
	pa.s.finish(pa.call, reqs, err)
	pa.letGo()
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

// batchReply is the answer to a batch frame (acquireN, releaseN,
// lease): frame status OK, per-item statuses and messages in the body.
// Every item reports by countdown (set), from whatever goroutine
// finished it, and the last report answers the frame.
type batchReply struct {
	s    *Server
	sess *session
	id   uint64
	sts  []byte
	msgs []string
	left atomic.Int32
}

func (s *Server) newBatch(sess *session, id uint64, k int) *batchReply {
	b := &batchReply{s: s, sess: sess, id: id, sts: make([]byte, k), msgs: make([]string, k)}
	b.left.Store(int32(k))
	return b
}

func (b *batchReply) set(i int, st byte, msg string) {
	b.sts[i], b.msgs[i] = st, msg
	if b.left.Add(-1) == 0 {
		b.s.replyFrame(b.sess, batchFrame(b.id, b.sts, b.msgs))
	}
}

// item is one transaction's claim inside a batch frame.
type item struct {
	txn       lockmgr.TxnID
	reqs      []lockmgr.Request
	timeoutMS int64 // acquireN only
}

// serveAcquireN takes the sub-claims of a batch — independent
// transactions — down the one path, each with the batch as where its
// outcome goes, and returns without waiting for them: the batch answers
// when its last sub-claim reports.
func (s *Server) serveAcquireN(sess *session, id uint64, body []byte) {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		s.reply(sess, id, statusBadRequest, "malformed acquireN count")
		return
	}
	subs := make([]item, 0, k)
	for i := uint32(0); i < k; i++ {
		txn, reqs, timeoutMS := parseAcquireBody(&fr, nil)
		subs = append(subs, item{txn, reqs, timeoutMS})
	}
	if !fr.done() {
		s.reply(sess, id, statusBadRequest, "malformed acquireN body")
		return
	}
	s.om.batchOps.Add(int64(k))
	b := s.newBatch(sess, id, int(k))
	for i, c := range subs {
		s.acquire(call{sess: sess, txn: c.txn, timeoutMS: c.timeoutMS, batch: b, idx: i}, c.reqs)
	}
}

// serveReleaseN takes the releases of a batch down the one path (release),
// each with the batch as where its outcome goes: the batch answers when
// its last item reports.
func (s *Server) serveReleaseN(sess *session, id uint64, body []byte) {
	fr := frameReader{b: body}
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		s.reply(sess, id, statusBadRequest, "malformed releaseN count")
		return
	}
	txns := make([]lockmgr.TxnID, 0, k)
	for i := uint32(0); i < k; i++ {
		txns = append(txns, lockmgr.TxnID(fr.u64()))
	}
	if !fr.done() {
		s.reply(sess, id, statusBadRequest, "malformed releaseN body")
		return
	}
	s.om.batchOps.Add(int64(k))
	b := s.newBatch(sess, id, int(k))
	for i, txn := range txns {
		s.release(call{sess: sess, txn: txn, batch: b, idx: i})
	}
}

// serveLease processes a lease assert: each transaction's grant
// refresh or reconstruction goes down its path (lease) with the batch as
// where its outcome goes, and the batch answers when its last item
// reports.
func (s *Server) serveLease(sess *session, id uint64, body []byte) {
	fr := frameReader{b: body}
	fr.u64() // lease id: carried for observability, no fencing use yet
	k := fr.u32()
	if fr.bad || k == 0 || k > v2MaxInflight {
		s.reply(sess, id, statusBadRequest, "malformed lease count")
		return
	}
	items := make([]item, 0, k)
	for i := uint32(0); i < k; i++ {
		txn := lockmgr.TxnID(fr.u64())
		reqs := parseRequests(&fr, nil)
		if fr.bad {
			s.reply(sess, id, statusBadRequest, "malformed lease body")
			return
		}
		items = append(items, item{txn: txn, reqs: reqs})
	}
	if !fr.done() {
		s.reply(sess, id, statusBadRequest, "malformed lease body")
		return
	}
	s.om.batchOps.Add(int64(k))
	b := s.newBatch(sess, id, int(k))
	for i, it := range items {
		s.lease(call{sess: sess, txn: it.txn, batch: b, idx: i}, it.reqs)
	}
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
