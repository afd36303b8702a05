// Package sched implements transaction-level scheduling (admission
// control) policies. The paper observes (§3.7) that with many
// transactions in the system fine granularity collapses under lock
// overhead, and points to transaction-level scheduling — in particular
// the adaptive policies of Dandamudi & Chow (refs [3], [4]) — as the
// remedy. These policies bound the number of transactions concurrently
// holding or requesting locks.
package sched

import "fmt"

// Policy decides whether another transaction may be admitted to the lock
// request stage and observes lock-request outcomes to adapt. Policies
// are used from the single-threaded simulation loop and need no internal
// synchronization: each run adapts its own Clone, so one policy value
// can configure any number of runs, sequential or concurrent.
type Policy interface {
	// CanAdmit reports whether a transaction may issue its lock request
	// given the number of transactions currently active (holding locks).
	CanAdmit(active int) bool
	// Observe feeds the outcome of one lock request.
	Observe(granted bool)
	// Name identifies the policy in experiment output.
	Name() string
	// Clone returns an independent copy of the policy in its current
	// state: Observe on the copy leaves the original untouched.
	Clone() Policy
}

// Unlimited admits everything: the paper's base model.
type Unlimited struct{}

// CanAdmit always reports true.
func (Unlimited) CanAdmit(int) bool { return true }

// Observe ignores the outcome.
func (Unlimited) Observe(bool) {}

// Name returns "unlimited".
func (Unlimited) Name() string { return "unlimited" }

// Clone returns the stateless policy itself.
func (u Unlimited) Clone() Policy { return u }

// FixedMPL admits at most Limit concurrently active transactions
// (a static multiprogramming-level limit).
type FixedMPL struct {
	Limit int
}

// CanAdmit reports whether the MPL limit has room.
func (f FixedMPL) CanAdmit(active int) bool { return active < f.Limit }

// Observe ignores the outcome.
func (FixedMPL) Observe(bool) {}

// Name returns "mpl(<limit>)".
func (f FixedMPL) Name() string { return fmt.Sprintf("mpl(%d)", f.Limit) }

// Clone returns the stateless policy itself.
func (f FixedMPL) Clone() Policy { return f }

// AdaptiveMPL adjusts an MPL limit by additive increase, multiplicative
// decrease on the observed lock-denial rate: when denials exceed the
// target rate over a window the limit halves, otherwise it creeps up.
// This is a simple instance of the adaptive transaction-level policies
// of ref [4].
type AdaptiveMPL struct {
	min, max int
	window   int
	target   float64

	limit  int
	seen   int
	denied int
}

// NewAdaptiveMPL returns an adaptive policy with limits in [min, max],
// adjusting every window observations against the target denial rate.
func NewAdaptiveMPL(min, max, window int, target float64) (*AdaptiveMPL, error) {
	if min < 1 {
		return nil, fmt.Errorf("sched: min MPL %d < 1", min)
	}
	if max < min {
		return nil, fmt.Errorf("sched: max MPL %d < min %d", max, min)
	}
	if window < 1 {
		return nil, fmt.Errorf("sched: window %d < 1", window)
	}
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("sched: target denial rate %v outside (0,1)", target)
	}
	return &AdaptiveMPL{min: min, max: max, window: window, target: target, limit: max}, nil
}

// CanAdmit reports whether the current adaptive limit has room.
func (a *AdaptiveMPL) CanAdmit(active int) bool { return active < a.limit }

// Limit returns the current adaptive MPL limit (for tests and tracing).
func (a *AdaptiveMPL) Limit() int { return a.limit }

// Observe records one lock-request outcome and adapts at window
// boundaries.
func (a *AdaptiveMPL) Observe(granted bool) {
	a.seen++
	if !granted {
		a.denied++
	}
	if a.seen < a.window {
		return
	}
	rate := float64(a.denied) / float64(a.seen)
	if rate > a.target {
		a.limit /= 2
		if a.limit < a.min {
			a.limit = a.min
		}
	} else if a.limit < a.max {
		a.limit++
	}
	a.seen, a.denied = 0, 0
}

// Name returns "adaptive[min..max]".
func (a *AdaptiveMPL) Name() string { return fmt.Sprintf("adaptive[%d..%d]", a.min, a.max) }

// Clone returns a copy carrying the current limit and window counts.
func (a *AdaptiveMPL) Clone() Policy {
	c := *a
	return &c
}
