package lockmgr

// Detector maintains a transaction waits-for graph and answers cycle
// queries. Each waiting transaction has at most one *reason* to wait (one
// granule) but possibly several blockers (edges), e.g. multiple shared
// holders blocking a writer.
//
// Detector is not itself synchronized: the table calls it under its
// latch. It is exported because the engine's tests use it directly.
type Detector struct {
	out   map[TxnID]map[TxnID]struct{}
	edges int // running edge count, so Edges() is O(1)

	// DFS scratch, reused across InCycle calls. Callers already
	// serialize detector access (Table under its latch), so a per-call
	// allocation buys nothing but GC work —
	// and InCycle runs on every block, squarely on the contended path.
	visited map[TxnID]struct{}
	stack   []TxnID
}

// NewDetector returns an empty waits-for graph.
func NewDetector() *Detector {
	return &Detector{out: make(map[TxnID]map[TxnID]struct{})}
}

// AddEdge records that waiter waits for holder. Self-edges are ignored.
func (d *Detector) AddEdge(waiter, holder TxnID) {
	if waiter == holder {
		return
	}
	m := d.out[waiter]
	if m == nil {
		m = make(map[TxnID]struct{}, 2)
		d.out[waiter] = m
	}
	if _, dup := m[holder]; !dup {
		m[holder] = struct{}{}
		d.edges++
	}
}

// RemoveWaiter removes every outgoing edge of txn (it stopped waiting).
func (d *Detector) RemoveWaiter(txn TxnID) {
	d.edges -= len(d.out[txn])
	delete(d.out, txn)
}

// RemoveTxn removes txn entirely: its outgoing edges and every edge
// pointing at it (it released its locks or terminated).
func (d *Detector) RemoveTxn(txn TxnID) {
	d.edges -= len(d.out[txn])
	delete(d.out, txn)
	for _, m := range d.out {
		if _, ok := m[txn]; ok {
			delete(m, txn)
			d.edges--
		}
	}
}

// Edges returns the number of edges in the graph. The count is
// maintained incrementally, so release paths can consult it on every
// call: an empty graph means no transaction is blocked and deadlock
// bookkeeping can be skipped entirely.
func (d *Detector) Edges() int { return d.edges }

// InCycle reports whether txn can reach itself through waits-for edges,
// i.e. whether txn participates in a deadlock.
func (d *Detector) InCycle(txn TxnID) bool {
	if len(d.out[txn]) == 0 {
		return false
	}
	// Iterative DFS from txn looking for a path back to txn.
	if d.visited == nil {
		d.visited = make(map[TxnID]struct{}, 8)
	}
	visited := d.visited
	stack := d.stack[:0]
	defer func() { clear(visited); d.stack = stack[:0] }()
	for next := range d.out[txn] {
		stack = append(stack, next)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if _, seen := visited[cur]; seen {
			continue
		}
		visited[cur] = struct{}{}
		for next := range d.out[cur] {
			stack = append(stack, next)
		}
	}
	return false
}
