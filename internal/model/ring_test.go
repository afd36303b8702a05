package model

import (
	"context"
	"testing"

	"granulock/internal/sched"
	"granulock/internal/trace"
)

// drain pops every element into a slice of ids.
func drain(r *txnRing) []int {
	var ids []int
	for r.Len() > 0 {
		ids = append(ids, r.PopHead().id)
	}
	return ids
}

func idsEqual(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestTxnRingFIFO(t *testing.T) {
	var r txnRing
	for i := 1; i <= 100; i++ {
		r.PushTail(&txn{id: i})
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	got := drain(&r)
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("FIFO broken: got %v", got)
		}
	}
}

// TestTxnRingWrapAround forces the head to travel around the buffer
// several times, with interleaved pushes and pops across growth.
func TestTxnRingWrapAround(t *testing.T) {
	var r txnRing
	next, want := 0, []int{}
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			next++
			r.PushTail(&txn{id: next})
			want = append(want, next)
		}
		for i := 0; i < 2 && r.Len() > 0; i++ {
			if got := r.PopHead().id; got != want[0] {
				t.Fatalf("round %d: popped %d, want %d", round, got, want[0])
			}
			want = want[1:]
		}
	}
	if !idsEqual(drain(&r), want) {
		t.Fatal("drain after wrap-around lost order")
	}
}

func TestTxnRingPushHead(t *testing.T) {
	var r txnRing
	r.PushTail(&txn{id: 3})
	r.PushHead(&txn{id: 2})
	r.PushHead(&txn{id: 1})
	r.PushTail(&txn{id: 4})
	if got := drain(&r); !idsEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("got %v, want [1 2 3 4]", got)
	}
}

func TestTxnRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PopHead on empty ring did not panic")
		}
	}()
	var r txnRing
	r.PopHead()
}

// requeueFixture builds a simulation whose dispatcher is parked (lock
// manager busy), so requeueReleased's effect on the pending queue can be
// observed in isolation.
func requeueFixture(toTail bool) *simulation {
	return &simulation{
		p:        Params{ReleasedToTail: toTail},
		policy:   sched.Unlimited{},
		lockBusy: true, // tryDispatch is a no-op; the queue stays intact
	}
}

// TestRequeueReleasedToHeadPreservesDispatchOrder pins the semantics the
// ring buffer must preserve from the old slice implementation: a
// released set re-enters at the head of the pending queue in its
// blocking order, ahead of everything already pending — so the next
// dispatches serve exactly the released transactions first, in order.
func TestRequeueReleasedToHeadPreservesDispatchOrder(t *testing.T) {
	s := requeueFixture(false)
	s.pending.PushTail(&txn{id: 4, state: statePending})
	s.pending.PushTail(&txn{id: 5, state: statePending})
	released := []*txn{{id: 1, state: stateBlocked}, {id: 2, state: stateBlocked}, {id: 3, state: stateBlocked}}
	s.requeueReleased(released)

	for _, r := range released {
		if r.state != statePending {
			t.Fatalf("released txn %d not back to pending state", r.id)
		}
	}
	if got := drain(&s.pending); !idsEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("head requeue dispatch order = %v, want [1 2 3 4 5]", got)
	}
}

// TestRequeueReleasedToTail covers the ablation path: released
// transactions join behind the existing queue, still in blocking order.
func TestRequeueReleasedToTail(t *testing.T) {
	s := requeueFixture(true)
	s.pending.PushTail(&txn{id: 4, state: statePending})
	s.pending.PushTail(&txn{id: 5, state: statePending})
	s.requeueReleased([]*txn{{id: 1}, {id: 2}, {id: 3}})
	if got := drain(&s.pending); !idsEqual(got, []int{4, 5, 1, 2, 3}) {
		t.Fatalf("tail requeue dispatch order = %v, want [4 5 1 2 3]", got)
	}
}

// TestRequeueOrderEndToEnd checks the released-to-head path inside a
// real high-conflict run: every transaction's denial precedes its next
// request, and the simulation completes a deterministic population under
// whole-database locking (ltot=1 serializes everything through the
// blocked/release machinery).
func TestRequeueOrderEndToEnd(t *testing.T) {
	p := base()
	p.Ltot = 1 // maximum conflict: every active transaction blocks the next
	p.TMax = 200

	var events []obsEvent
	rec := &requestRecorder{events: &events}
	m, err := RunContext(context.Background(), p, rec)
	if err != nil {
		t.Fatal(err)
	}
	if m.LockDenials == 0 {
		t.Fatal("ltot=1 run produced no denials; conflict path untested")
	}
	// A denied transaction must be requested again (released-to-head)
	// before it can complete; verify request-after-denial ordering per id.
	lastDenied := map[int]bool{}
	for _, ev := range events {
		switch ev.kind {
		case "denied":
			lastDenied[ev.id] = true
		case "requested":
			delete(lastDenied, ev.id)
		case "completed":
			if lastDenied[ev.id] {
				t.Fatalf("txn %d completed while still parked after a denial", ev.id)
			}
		}
	}
}

// obsEvent is one recorded lock-manager lifecycle event.
type obsEvent struct {
	kind string
	id   int
}

// requestRecorder captures the lock-manager event stream.
type requestRecorder struct {
	events *[]obsEvent
}

func (r *requestRecorder) Observe(e trace.Event) {
	switch e.Kind {
	case trace.EventRequest:
		*r.events = append(*r.events, obsEvent{"requested", e.Txn})
	case trace.EventDeny:
		*r.events = append(*r.events, obsEvent{"denied", e.Txn})
	case trace.EventComplete:
		*r.events = append(*r.events, obsEvent{"completed", e.Txn})
	}
}
