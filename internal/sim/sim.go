// Package sim implements a minimal discrete-event simulation engine.
//
// Events are closures scheduled at absolute simulated times and executed
// in time order; simultaneous events run in scheduling (FIFO) order, which
// keeps runs deterministic for a fixed seed. Time is a float64 number of
// abstract "time units", matching the unit system of the paper's model
// (e.g. iotime = 0.2 time units per entity).
//
// # Hot-path design
//
// The engine is the inner loop of every parameter sweep, so it is built
// for steady-state zero-allocation operation:
//
//   - The priority queue is an index-addressable 4-ary min-heap ordered
//     by (time, seq), inlined into the engine rather than going through
//     the container/heap interface. A 4-ary heap halves the tree depth
//     of a binary heap and keeps the children of a node on one cache
//     line, which matters when the queue holds thousands of events.
//   - Fired and cancelled events go to a free list and are recycled by
//     the next At/After call, so a standing population of events (the
//     common case: every completion schedules a successor) allocates
//     nothing after warm-up.
//
// An *Event handle is valid until the event fires or is cancelled;
// afterwards the engine may recycle its memory for a future event, so
// holding a dead handle and calling Pending on it is a programming
// error. Cancel remains safe on dead handles as long as no new event has
// been scheduled in between (the double-Cancel no-op the package has
// always promised); the engine never recycles the firing event before
// its callback has returned, so callbacks can never be handed their own
// event's memory by At.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in abstract time units.
type Time = float64

// Event is a scheduled closure. The zero value is not useful; obtain
// events from Engine.At or Engine.After. An Event may be cancelled until
// it fires; once it has fired or been cancelled the handle is dead and
// its memory may be recycled for a later event.
type Event struct {
	t     Time
	seq   uint64 // tie-break: FIFO among simultaneous events
	fn    func()
	index int // heap index; -1 when not queued
}

// Time returns the time the event is (or was) scheduled to fire.
func (e *Event) Time() Time { return e.t }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.index >= 0 }

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; a simulation runs on one
// goroutine (the model's parallelism is simulated, not real).
type Engine struct {
	now   Time
	seq   uint64
	queue []*Event // 4-ary min-heap on (t, seq); index i's children are 4i+1..4i+4
	free  []*Event // recycled events, reused by the next At
	steps uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t. Scheduling in the past
// (before Now) panics: it would silently reorder causality. Non-finite
// times (NaN, ±Inf) panic too: a +Inf event can never meaningfully fire
// and corrupts Pending-based run-until logic.
//
//granulint:hotpath
func (e *Engine) At(t Time, fn func()) *Event {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		//granulint:ignore hotpath misuse guard that ends in panic; never taken on the hot path
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	if t < e.now {
		//granulint:ignore hotpath misuse guard that ends in panic; never taken on the hot path
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.siftUp(ev.index)
	return ev
}

// After schedules fn to run delay time units from now.
//
//granulint:hotpath
func (e *Engine) After(delay Time, fn func()) *Event {
	if delay < 0 {
		//granulint:ignore hotpath misuse guard that ends in panic; never taken on the hot path
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// Cancel removes a pending event from the queue and recycles it.
// Cancelling an event that already fired or was already cancelled is a
// no-op.
//
//granulint:hotpath
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.remove(ev.index)
	e.release(ev)
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports whether an event was executed.
//
//granulint:hotpath
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.remove(0)
	e.now = ev.t
	e.steps++
	fn := ev.fn
	ev.fn = nil
	// The event is recycled only after its callback returns: an At call
	// inside fn must never be handed the still-firing event's memory.
	fn()
	e.release(ev)
	return true
}

// RunUntilSteps executes events in order until the queue is exhausted,
// the next event is strictly after horizon, or max events have run —
// the step budget lets a caller interleave the event loop with
// cancellation checks. Events at the horizon itself do run. It returns
// the number of events executed; a return below max means the horizon
// was reached: the clock is advanced to exactly horizon and further
// calls execute nothing.
//
//granulint:hotpath
func (e *Engine) RunUntilSteps(horizon Time, max uint64) uint64 {
	start := e.steps
	for len(e.queue) > 0 && e.queue[0].t <= horizon && e.steps-start < max {
		e.Step()
	}
	if len(e.queue) == 0 || e.queue[0].t > horizon {
		if e.now < horizon {
			e.now = horizon
		}
	}
	return e.steps - start
}

// Run executes events until the queue is empty and returns the number of
// events executed. Use RunUntilSteps for models that generate work
// forever.
func (e *Engine) Run() uint64 {
	start := e.steps
	for e.Step() {
	}
	return e.steps - start
}

// alloc returns a recycled event, or a fresh one if the pool is empty.
//
//granulint:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free) - 1; n >= 0 {
		ev := e.free[n]
		e.free[n] = nil
		e.free = e.free[:n]
		return ev
	}
	return &Event{}
}

// release marks ev dead and returns it to the pool.
//
//granulint:hotpath
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// less orders the heap by (time, seq); seq is unique, so the order is
// total and pop order is independent of the heap's internal layout.
//
//granulint:hotpath
func less(a, b *Event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// siftUp restores the heap invariant upward from index i.
//
//granulint:hotpath
func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// siftDown restores the heap invariant downward from index i.
//
//granulint:hotpath
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ev := q[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(q[c], q[best]) {
				best = c
			}
		}
		if !less(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].index = i
		i = best
	}
	q[i] = ev
	ev.index = i
}

// remove deletes the event at heap index i, marking it unqueued. The
// caller still owns the event (Step runs it, Cancel recycles it).
//
//granulint:hotpath
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	ev.index = -1
	if i == n {
		return
	}
	q[i] = last
	last.index = i
	e.siftDown(i)
	if last.index == i {
		e.siftUp(i)
	}
}
