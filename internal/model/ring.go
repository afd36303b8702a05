package model

// txnRing is a growable circular FIFO of transactions, used for the
// pending queue. The previous representation was a plain slice whose
// head removal copy-shifted every remaining element — O(n) per dispatch
// and quadratic over a run at Figure 12's ntrans=200. The ring makes
// head pop, head push (released transactions re-enter at the head) and
// tail push all O(1). Capacity is always a power of two so positions
// wrap with a mask instead of a modulo.
type txnRing struct {
	buf  []*txn
	head int // index of the front element, meaningless when n == 0
	n    int
}

// Len returns the number of queued transactions.
func (r *txnRing) Len() int { return r.n }

// grow ensures capacity for at least need elements, unwrapping the ring
// to the start of the new buffer.
func (r *txnRing) grow(need int) {
	c := len(r.buf)
	if need <= c {
		return
	}
	if c == 0 {
		c = 8
	}
	for c < need {
		c <<= 1
	}
	nb := make([]*txn, c)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&mask]
	}
	r.buf = nb
	r.head = 0
}

// PushTail appends t at the back of the queue.
func (r *txnRing) PushTail(t *txn) {
	r.grow(r.n + 1)
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

// PushHead inserts t at the front of the queue.
func (r *txnRing) PushHead(t *txn) {
	r.grow(r.n + 1)
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = t
	r.n++
}

// PopHead removes and returns the front transaction. It panics on an
// empty ring; callers check Len first.
func (r *txnRing) PopHead() *txn {
	if r.n == 0 {
		panic("model: PopHead on empty pending ring")
	}
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}
