package locksrv

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/rng"
)

// errConnLost is the internal transport-retry signal for a request that
// raced a connection teardown.
var errConnLost = errors.New("locksrv: connection lost")

// Typed protocol errors, one per response status (see replyErr), matched
// with errors.Is. These are lock-protocol outcomes, not transport
// failures: the client never retries them at the transport layer (the
// caller decides — a timed-out acquire is commonly retried after
// releasing, a foreign release is a logic bug).
//
// locksrv is a wire boundary: every error the package constructs in a
// function body must wrap one of these taxonomy values with %w, so
// callers on the far side can dispatch with errors.Is. The errtaxonomy
// analyzer (cmd/granulint) enforces this.
//
//granulint:wireboundary
var (
	// ErrTimeout: the acquire's wait deadline (timeout_ms) expired.
	ErrTimeout = errors.New("locksrv: acquire timed out")
	// ErrNotOwner: release of a transaction granted on another session.
	ErrNotOwner = errors.New("locksrv: transaction owned by another session")
	// ErrSessionClosed: the server is draining or closed the session.
	ErrSessionClosed = errors.New("locksrv: session closed by server")
	// ErrClientClosed: Close was called on this client; no further
	// requests or reconnects will be attempted.
	ErrClientClosed = errors.New("locksrv: client closed")
	// ErrBadRequest: the server rejected the request as malformed
	// (bad_request) — a client bug, not a transient fault.
	ErrBadRequest = errors.New("locksrv: bad request")
	// ErrUnknownOp: the server does not implement the requested op —
	// a protocol-version mismatch between client and server.
	ErrUnknownOp = errors.New("locksrv: unknown op")
	// ErrMalformedReply: the client could not decode a server reply, or
	// the reply carried a status outside the taxonomy — framing or
	// protocol state is suspect.
	ErrMalformedReply = errors.New("locksrv: malformed reply")
	// ErrRedirect: the request reached a cluster node that does not
	// serve the granule set. The concrete error is a *RedirectError
	// carrying the owning node's index and address (errors.As); the
	// cluster client follows it transparently.
	ErrRedirect = errors.New("locksrv: granule served by another node")
	// ErrLeaseExpired: a lease re-assert lost the failover race — the
	// recovery window sealed before the assert arrived, or the grants
	// conflict with state already reconstructed. The transaction's locks
	// are gone and the caller must re-claim from scratch.
	ErrLeaseExpired = errors.New("locksrv: lease expired")
	// ErrUnavailable: the server could not durably journal the grant
	// (lockd -waldir), so it withdrew the claim; the transaction holds
	// nothing. Not a verdict on the request: the caller may retry it, and
	// a retry succeeds once the journal recovers.
	ErrUnavailable = errors.New("locksrv: grant not journaled, claim withdrawn")
)

// RedirectError is the concrete error behind ErrRedirect: the serving
// node's ring index and dial address, parsed from the redirect detail.
// Match with errors.As to follow the redirect, or
// errors.Is(err, ErrRedirect) to merely classify it.
type RedirectError struct {
	Node int    // ring index of the serving node
	Addr string // dial address of the serving node
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("locksrv: granule served by node %d at %s", e.Node, e.Addr)
}

// Unwrap chains to ErrRedirect so errors.Is classification works.
func (e *RedirectError) Unwrap() error { return ErrRedirect }

// redirectDetail encodes the serving node for a redirect reply; the
// format is shared by error frames and batch sub-item messages.
func redirectDetail(node int, addr string) string {
	return fmt.Sprintf("%d %s", node, addr)
}

// parseRedirectDetail is the inverse of redirectDetail. ok is false
// when the detail does not parse (a redirect from a future protocol
// revision degrades to the plain ErrRedirect classification).
func parseRedirectDetail(detail string) (node int, addr string, ok bool) {
	i := 0
	for i < len(detail) && detail[i] >= '0' && detail[i] <= '9' {
		node = node*10 + int(detail[i]-'0')
		i++
	}
	if i == 0 || i+1 >= len(detail) || detail[i] != ' ' {
		return 0, "", false
	}
	return node, detail[i+1:], true
}

// ClientV2 is one lock-manager session over the binary pipelined
// protocol. Its methods are safe for concurrent use: calls from many
// goroutines multiplex over one connection, each tagged with a request
// id, and responses are matched back as they arrive — out of order when
// the server completes them out of order. That multiplexing is the whole
// point: N concurrent calls cost one connection and, thanks to write
// coalescing on both sides, far fewer than 2N syscalls.
//
// The client survives transport faults: a dead connection fails every
// in-flight call with a transport error, and each call retries on a
// fresh connection (single-flight redial) with capped exponential
// backoff and deterministic jitter, up to the retry budget. Retrying is
// safe because a dead session's grants are force-released by the
// server — re-sending an acquire whose response was lost re-claims from
// a clean slate, and re-sending a release is idempotent. Lock-protocol
// errors (timeout, not_owner, bad_request, unavailable) are returned
// typed and never retried here.
type ClientV2 struct {
	cfg clientCfg

	// mu guards the connection state and the pending map. The write
	// side is the connection's connWriter, the server's: a caller encodes
	// its frame straight into the connection's buffer and, if nobody is
	// writing, writes it out itself — after one scheduler round, so that
	// a burst of concurrent calls becomes one syscall.
	mu      sync.Mutex
	w       *connWriter // the current connection; nil while there is none
	pending map[uint64]chan v2Reply
	closed  bool
	everUp  bool // a connection has succeeded before (reconnect accounting)
	// closeCh is closed exactly once by Close; backoff sleeps select on
	// it so Close aborts a reconnect backoff immediately.
	closeCh chan struct{}

	// dialMu single-flights redials so a burst of failed calls does not
	// stampede the server with parallel dials.
	dialMu sync.Mutex

	idSeq atomic.Uint64

	reconnects atomic.Int64
	retried    atomic.Int64
}

// v2Reply is one matched response: a status byte plus its body, or a
// transport error.
type v2Reply struct {
	status byte
	body   []byte // copied out of the frame buffer; nil unless needed
	err    error
}

// replyChPool recycles the one-shot channels calls wait on. A channel
// goes back to the pool only after its single value was consumed, so a
// pooled channel is always empty.
var replyChPool = sync.Pool{New: func() any { return make(chan v2Reply, 1) }}

// clientCfg is the configuration of a ClientV2, and through it of the
// per-node sessions of a ClusterClient.
type clientCfg struct {
	addr string
	dial func(addr string) (net.Conn, error)

	retries     int // transport retries per request, beyond the first attempt
	backoffBase time.Duration
	backoffMax  time.Duration
	jitter      *rng.Source
	sleep       func(time.Duration) // test seam; nil means the default timer-backed sleep

	// Cluster-client knobs (WithLeaseInterval, WithFailoverTimeout);
	// ignored by a bare ClientV2.
	leaseEvery   time.Duration
	failoverWait time.Duration
}

func defaultClientCfg(addr string) clientCfg {
	return clientCfg{
		addr: addr,
		dial: func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		},
		retries:     4,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  time.Second,
		jitter:      rng.New(1),
	}
}

// ClientOption configures a ClientV2 or a ClusterClient.
type ClientOption func(*clientCfg)

// WithRetries sets how many times a request is retried after a
// transport failure (dial, send or receive). Default 4. Zero disables
// reconnection entirely: the first transport error is final.
func WithRetries(n int) ClientOption {
	return func(c *clientCfg) { c.retries = n }
}

// WithJitterSeed seeds the deterministic backoff jitter stream, so a
// fleet of workers with distinct seeds desynchronizes its reconnect
// storms reproducibly. Default seed 1.
// A deliberate test hook: tests set it to make backoff reproducible.
func WithJitterSeed(seed uint64) ClientOption {
	return func(c *clientCfg) { c.jitter = rng.New(seed) }
}

// WithDialer replaces the transport dialer — how the client (re)opens
// its connection. The package's fault-injection tests wrap the
// returned conn (FaultyDialer in faults_test.go).
func WithDialer(dial func(addr string) (net.Conn, error)) ClientOption {
	return func(c *clientCfg) { c.dial = dial }
}

// DialV2 connects to a lock server.
func DialV2(addr string, opts ...ClientOption) (*ClientV2, error) {
	c := &ClientV2{
		cfg:     defaultClientCfg(addr),
		pending: make(map[uint64]chan v2Reply),
		closeCh: make(chan struct{}),
	}
	for _, o := range opts {
		o(&c.cfg)
	}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// ensureConn dials a connection if there is none. Dials are
// single-flighted: concurrent callers wait for the first dial instead of
// racing their own.
func (c *ClientV2) ensureConn() error {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	// Check under the dial lock: another caller may have connected.
	c.mu.Lock()
	closed, connected := c.closed, c.w != nil
	c.mu.Unlock()
	if closed {
		return ErrClientClosed
	}
	if connected {
		return nil
	}
	conn, err := c.cfg.dial(c.cfg.addr)
	if err != nil {
		return fmt.Errorf("locksrv: dial: %w", err)
	}
	if _, err := conn.Write([]byte(protoMagic)); err != nil {
		conn.Close()
		return fmt.Errorf("locksrv: send magic: %w", err)
	}
	w := new(connWriter)
	w.init(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClientClosed
	}
	c.w = w
	if c.everUp {
		c.reconnects.Add(1)
	}
	c.everUp = true
	c.mu.Unlock()
	go c.readLoop(w)
	return nil
}

// readLoop owns one connection's read side: it matches response frames
// to pending calls until the connection dies, then fails whatever is
// still in flight.
func (c *ClientV2) readLoop(w *connWriter) {
	br := bufio.NewReaderSize(w.conn, 64<<10)
	for {
		fb, status, id, body, err := readFrame(br)
		if err != nil {
			c.failConn(w, fmt.Errorf("locksrv: receive: %w", err))
			return
		}
		var bodyCopy []byte
		if len(body) > 0 {
			bodyCopy = append([]byte(nil), body...)
		}
		putFrame(fb)
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- v2Reply{status: status, body: bodyCopy}
		}
	}
}

// failConn tears down w's connection (if still current) and fails every
// in-flight call with a transport error, which their retry loops
// handle.
func (c *ClientV2) failConn(w *connWriter, err error) {
	c.mu.Lock()
	if c.w != w {
		c.mu.Unlock()
		return // already superseded
	}
	c.w = nil
	calls := c.pending
	c.pending = make(map[uint64]chan v2Reply)
	c.mu.Unlock()
	w.conn.Close()
	for _, ch := range calls {
		ch <- v2Reply{err: err}
	}
}

// send registers a call and appends its frame, which build completes,
// to the connection's write buffer, dialing a connection first if there
// is none. The check for a live connection, the registration and the
// append are one sequence — mu is dropped only once the writer's mutex
// is held — so if that connection dies at any point from here on,
// failConn finds the call registered and fails it: the caller gets its
// transport error from the returned channel.
func (c *ClientV2) send(op byte, build func(fb *frameBuf)) (chan v2Reply, error) {
	c.mu.Lock()
	if c.w == nil {
		c.mu.Unlock()
		if err := c.ensureConn(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if c.w == nil {
			// Closed, or the fresh connection is already dead.
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil, ErrClientClosed
			}
			return nil, errConnLost
		}
	}
	w := c.w
	id := c.idSeq.Add(1)
	ch := replyChPool.Get().(chan v2Reply)
	c.pending[id] = ch
	w.mu.Lock()
	c.mu.Unlock()
	w.buf.start(op, id)
	build(&w.buf)
	w.buf.finish()
	if err := w.appended(true); err != nil {
		c.failConn(w, fmt.Errorf("locksrv: send: %w", err))
	}
	return ch, nil
}

// roundTrip2 performs one request with transport retries. build encodes
// the request body into the supplied frame (already started).
func (c *ClientV2) roundTrip2(op byte, build func(fb *frameBuf)) (v2Reply, error) {
	var lastErr error
	var timer *sleeper // made by the first retry
	for attempt := 0; attempt <= c.cfg.retries; attempt++ {
		if attempt > 0 {
			if c.isClosed() {
				return v2Reply{}, fmt.Errorf("%w (after: %v)", ErrClientClosed, lastErr)
			}
			c.retried.Add(1)
			if timer == nil {
				timer = newSleeper(c.cfg.sleep, c.closeCh)
				defer timer.stop()
			}
			timer.sleep(c.backoffDelay(attempt - 1))
		}
		ch, err := c.send(op, build)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return v2Reply{}, err
			}
			lastErr = err
			continue
		}
		reply := <-ch
		replyChPool.Put(ch)
		if reply.err != nil {
			lastErr = reply.err
			continue
		}
		return reply, nil
	}
	return v2Reply{}, fmt.Errorf("locksrv: retry budget exhausted after %d attempts: %w", c.cfg.retries+1, lastErr)
}

// backoffDelay returns the sleep before reconnect attempt k (0-based):
// capped exponential with deterministic jitter, uniform in [d/2, d).
// The jitter source is not concurrency-safe, so draws are serialized
// under mu.
func (c *ClientV2) backoffDelay(attempt int) time.Duration {
	d := c.cfg.backoffBase
	for i := 0; i < attempt && d < c.cfg.backoffMax; i++ {
		d *= 2
	}
	if d > c.cfg.backoffMax {
		d = c.cfg.backoffMax
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	c.mu.Lock()
	j := c.cfg.jitter.Intn(int(half) + 1)
	c.mu.Unlock()
	return half + time.Duration(j)
}

func (c *ClientV2) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// sleeper wraps the backoff sleep: the test seam if set, else one
// reusable timer per call site (per roundTrip, not per attempt). A
// close of done aborts a sleep in progress, so Close does not wait out
// a reconnect backoff.
type sleeper struct {
	seam  func(time.Duration)
	done  <-chan struct{}
	timer *time.Timer
}

func newSleeper(seam func(time.Duration), done <-chan struct{}) *sleeper {
	return &sleeper{seam: seam, done: done}
}

func (s *sleeper) sleep(d time.Duration) {
	if s.seam != nil {
		s.seam(d)
		return
	}
	if d <= 0 {
		return
	}
	if s.timer == nil {
		s.timer = time.NewTimer(d)
	} else {
		// The timer was always left fired-and-drained or
		// stopped-and-drained by the select below, so Reset is safe.
		s.timer.Reset(d)
	}
	select {
	case <-s.timer.C:
	case <-s.done:
		if !s.timer.Stop() {
			<-s.timer.C
		}
	}
}

func (s *sleeper) stop() {
	if s.timer != nil {
		s.timer.Stop()
	}
}

// replyErr maps a response status onto the typed-error taxonomy; the
// reply body is the server's human-readable detail.
func replyErr(op string, r v2Reply) error {
	var base error
	switch r.status {
	case statusOK:
		return nil
	case statusTimeout:
		base = ErrTimeout
	case statusClosed:
		base = ErrSessionClosed
	case statusNotOwner:
		base = ErrNotOwner
	case statusBadRequest:
		base = ErrBadRequest
	case statusUnknownOp:
		base = ErrUnknownOp
	case statusRedirect:
		if node, addr, ok := parseRedirectDetail(string(r.body)); ok {
			base = &RedirectError{Node: node, Addr: addr}
		} else {
			base = ErrRedirect
		}
	case statusLeaseExpired:
		base = ErrLeaseExpired
	case statusUnavailable:
		base = ErrUnavailable
	default:
		// A status outside the taxonomy: the server speaks a newer (or
		// corrupted) protocol revision.
		base = ErrMalformedReply
	}
	return fmt.Errorf("locksrv: %s: %w (%s)", op, base, r.body)
}

// appendAcquireBody encodes one acquire body onto fb: txn(8)
// timeout(8), then the requests.
func appendAcquireBody(fb *frameBuf, txn int64, reqs []lockmgr.Request, timeoutMS int64) {
	fb.appendU64(uint64(txn))
	fb.appendU64(uint64(timeoutMS))
	appendReqs(fb, reqs)
}

// appendReqs encodes a request list onto fb: n(4), then n × (granule(8)
// mode(1)) — reqsSize bytes.
func appendReqs(fb *frameBuf, reqs []lockmgr.Request) {
	fb.appendU32(uint32(len(reqs)))
	for _, r := range reqs {
		fb.appendU64(uint64(r.Granule))
		if r.Mode == lockmgr.ModeExclusive {
			fb.appendByte(1)
		} else {
			fb.appendByte(0)
		}
	}
}

// reqsSize is the encoded size of a request list (appendReqs).
func reqsSize(reqs []lockmgr.Request) int { return 4 + 9*len(reqs) }

// wireTimeoutMS rounds a sub-millisecond timeout up to the wire's 1ms
// resolution: the protocol reads timeout_ms=0 as "wait indefinitely", so
// truncation would turn a tight deadline into an unbounded block.
func wireTimeoutMS(timeout time.Duration) int64 {
	ms := int64(timeout / time.Millisecond)
	if timeout > 0 && ms == 0 {
		ms = 1
	}
	return ms
}

// AcquireAll conservatively claims the lock set for txn, blocking until
// granted. Safe for concurrent use; concurrent calls pipeline.
func (c *ClientV2) AcquireAll(txn int64, reqs []lockmgr.Request) error {
	return c.AcquireAllTimeout(txn, reqs, 0)
}

// AcquireAllTimeout is AcquireAll with a wait deadline: if the claim is
// not granted within timeout the server withdraws it, the transaction
// holds nothing, and the call fails with an error matching ErrTimeout
// (errors.Is). Zero timeout waits indefinitely.
func (c *ClientV2) AcquireAllTimeout(txn int64, reqs []lockmgr.Request, timeout time.Duration) error {
	ms := wireTimeoutMS(timeout)
	reply, err := c.roundTrip2(opAcquire, func(fb *frameBuf) {
		appendAcquireBody(fb, txn, reqs, ms)
	})
	if err != nil {
		return err
	}
	return replyErr("acquire", reply)
}

// ReleaseAll releases everything txn holds. Releasing a transaction
// granted on a different session fails with an error matching
// ErrNotOwner; releasing an unknown transaction is an idempotent no-op.
func (c *ClientV2) ReleaseAll(txn int64) error {
	reply, err := c.roundTrip2(opRelease, func(fb *frameBuf) {
		fb.appendU64(uint64(txn))
	})
	if err != nil {
		return err
	}
	return replyErr("release", reply)
}

// Claim is one sub-claim of a batched AcquireN.
type Claim struct {
	Txn     int64
	Reqs    []lockmgr.Request
	Timeout time.Duration // zero: wait indefinitely
}

// maxBatchBytes bounds the encoded body of one batch frame. The wire
// rejects frames over maxFrame as connection-fatal, so the client must
// split a large batch across frames rather than encode it whole; the
// margin leaves room for the frame header. A var, not a const, so
// tests can shrink it to exercise chunking without megabyte batches.
var maxBatchBytes = maxFrame - 1024

// batch sends the n items of a batch op in consecutive frames, each
// frame's body within maxBatchBytes and v2MaxInflight items, and returns
// one outcome per item. header is a frame's body bytes before its items,
// size(i) item i's encoded size, and encode writes a whole body: the
// header and items [from, to). An item too large for any frame is
// rejected before any frame is sent.
func (c *ClientV2) batch(op byte, name string, n, header int, size func(i int) int, encode func(fb *frameBuf, from, to int)) ([]error, error) {
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		if header+size(i) > maxBatchBytes {
			return nil, fmt.Errorf("%w: %sN item %d alone exceeds the %d-byte frame cap", ErrBadRequest, name, i, maxFrame)
		}
	}
	out := make([]error, 0, n)
	for from := 0; from < n; {
		to, bytes := from, header
		for to < n && to-from < v2MaxInflight && bytes+size(to) <= maxBatchBytes {
			bytes += size(to)
			to++
		}
		reply, err := c.roundTrip2(op, func(fb *frameBuf) { encode(fb, from, to) })
		if err != nil {
			return nil, err
		}
		outs, err := parseBatchReply(name, reply, to-from)
		if err != nil {
			return nil, err
		}
		out = append(out, outs...)
		from = to
	}
	return out, nil
}

// AcquireN sends a batch of independent conservative claims. The
// server runs each frame's claims concurrently and responds once per
// frame, when its last claim completes. Batches too large for one wire
// frame (the 4 MiB frame cap, or the server's per-frame claim cap) are
// split across consecutive frames transparently. The returned slice
// has one entry per claim, nil for granted (typed errors otherwise);
// the error return is transport-level and means the batch outcome is
// unknown.
func (c *ClientV2) AcquireN(claims []Claim) ([]error, error) {
	return c.batch(opAcquireN, "acquire", len(claims), 4,
		func(i int) int { return 16 + reqsSize(claims[i].Reqs) },
		func(fb *frameBuf, from, to int) {
			fb.appendU32(uint32(to - from))
			for _, cl := range claims[from:to] {
				appendAcquireBody(fb, cl.Txn, cl.Reqs, wireTimeoutMS(cl.Timeout))
			}
		})
}

// ReleaseN releases a batch of transactions, returning one outcome per
// transaction (same contract as AcquireN). Batches too large for one
// wire frame (the 4 MiB frame cap, or the server's per-frame item cap)
// are split across consecutive frames transparently.
func (c *ClientV2) ReleaseN(txns []int64) ([]error, error) {
	return c.batch(opReleaseN, "release", len(txns), 4,
		func(int) int { return 8 },
		func(fb *frameBuf, from, to int) {
			fb.appendU32(uint32(to - from))
			for _, txn := range txns[from:to] {
				fb.appendU64(uint64(txn))
			}
		})
}

// LeaseTxn is one transaction's asserted holdings in a Lease: the
// locks the client believes txn holds on the asserted node.
type LeaseTxn struct {
	Txn  int64
	Reqs []lockmgr.Request
}

// Lease asserts held transactions to a cluster node, the client half
// of lease-based failover. On the node that granted the locks it is a
// refresh (a no-op beyond liveness); on a standby that took over a
// dead node's partition it reconstructs the holder state — the standby
// re-grants exactly what the client asserts, first assert wins. The
// returned slice has one entry per transaction: nil when the grants
// are (re)established, an error matching ErrLeaseExpired when the
// recovery window sealed first or the grants conflict, ErrRedirect
// when the node serves none of it. Large asserts are chunked across
// frames like AcquireN.
func (c *ClientV2) Lease(leaseID uint64, txns []LeaseTxn) ([]error, error) {
	return c.batch(opLease, "lease", len(txns), 12,
		func(i int) int { return 8 + reqsSize(txns[i].Reqs) },
		func(fb *frameBuf, from, to int) {
			fb.appendU64(leaseID)
			fb.appendU32(uint32(to - from))
			for _, lt := range txns[from:to] {
				fb.appendU64(uint64(lt.Txn))
				appendReqs(fb, lt.Reqs)
			}
		})
}

// parseBatchReply decodes the per-item statuses of an acquireN,
// releaseN or lease response.
func parseBatchReply(op string, reply v2Reply, want int) ([]error, error) {
	if reply.status != statusOK {
		return nil, replyErr(op, reply)
	}
	fr := frameReader{b: reply.body}
	k := int(fr.u32())
	if fr.bad || k != want {
		return nil, fmt.Errorf("%w: %sN: batch response has %d items, want %d", ErrMalformedReply, op, k, want)
	}
	out := make([]error, k)
	for i := 0; i < k; i++ {
		st := fr.byte()
		msg := fr.take(int(fr.u32()))
		if fr.bad {
			return nil, fmt.Errorf("%w: %sN: truncated batch response item %d", ErrMalformedReply, op, i)
		}
		out[i] = replyErr(op, v2Reply{status: st, body: msg})
	}
	if !fr.done() {
		return nil, fmt.Errorf("%w: %sN: trailing bytes in batch response", ErrMalformedReply, op)
	}
	return out, nil
}

// Stats fetches the server's lock-table counters.
func (c *ClientV2) Stats() (lockmgr.Stats, error) {
	table, _, err := c.FullStats()
	return table, err
}

// FullStats fetches both halves of the stats op: the lock-table
// counters and the service-level gauges, counters and wait quantiles.
func (c *ClientV2) FullStats() (lockmgr.Stats, ServerStats, error) {
	reply, err := c.roundTrip2(opStats, func(fb *frameBuf) {})
	if err != nil {
		return lockmgr.Stats{}, ServerStats{}, err
	}
	if reply.status != statusOK {
		return lockmgr.Stats{}, ServerStats{}, replyErr("stats", reply)
	}
	var resp statsReply
	if err := json.Unmarshal(reply.body, &resp); err != nil {
		return lockmgr.Stats{}, ServerStats{}, fmt.Errorf("locksrv: stats: %w", err)
	}
	if resp.Stats == nil {
		return lockmgr.Stats{}, ServerStats{}, fmt.Errorf("%w: stats reply carries no payload", ErrMalformedReply)
	}
	var srv ServerStats
	if resp.Server != nil {
		srv = *resp.Server
	}
	return *resp.Stats, srv, nil
}

// Reconnects returns how many times the client re-established its
// connection after a transport failure.
func (c *ClientV2) Reconnects() int64 { return c.reconnects.Load() }

// Retries returns how many request attempts were retries.
func (c *ClientV2) Retries() int64 { return c.retried.Load() }

// Close ends the session; the server releases any locks its
// transactions still hold. In-flight calls fail with ErrClientClosed,
// and no further reconnects are attempted.
func (c *ClientV2) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.closeCh != nil {
		close(c.closeCh)
	}
	w := c.w
	c.w = nil
	calls := c.pending
	c.pending = make(map[uint64]chan v2Reply)
	c.mu.Unlock()
	var err error
	if w != nil {
		err = w.conn.Close()
	}
	for _, ch := range calls {
		ch <- v2Reply{err: ErrClientClosed}
	}
	return err
}
