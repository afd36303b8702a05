// Package lockmgr provides the lock-management machinery of the
// reproduction, at two levels of abstraction:
//
//   - ConflictModel is the probabilistic lock-conflict computation of
//     Ries & Stonebraker that the paper's simulation uses (§2, "The
//     computation of lock conflicts"). It never materializes individual
//     locks; conflicts are drawn from the fraction of the lock space each
//     active transaction holds.
//
//   - Table is the real lock manager, the one type that grants, parks
//     and wakes: a decision core behind one latch, with five modes
//     (S and X, and the intention modes IS, IX and SIX, under one
//     compatibility matrix and one lattice join), conservative
//     all-or-nothing preclaiming, and claim-as-needed acquisition with a
//     waits-for-graph deadlock detector (Detector). HierTable is Gray's multi-granularity
//     protocol as a policy over it — path expansion and best-effort lock
//     escalation, with nodes of the hierarchy being granules of the
//     table. They power the executable mini-DBMS in internal/engine that
//     cross-validates the simulation's conclusions.
package lockmgr

import (
	"fmt"

	"granulock/internal/rng"
)

// Holder describes one active transaction for the conflict computation:
// its identity and the number of locks it currently holds.
type Holder struct {
	ID    int
	Locks int
}

// ConflictModel draws probabilistic lock-conflict decisions per the
// paper. With active transactions T1..Tk holding L1..Lk of the ltot
// locks, the interval (0,1] is split into partitions of widths Lj/ltot
// plus a remainder; a uniform draw landing in partition j blocks the
// requester on Tj, and a draw landing in the remainder grants the
// request. The model assumes enough locks are free for the requester to
// potentially proceed, so the requester's own demand never blocks it.
type ConflictModel struct {
	ltot int
	src  *rng.Source
}

// NewConflictModel returns a conflict model over ltot locks drawing
// randomness from src.
func NewConflictModel(ltot int, src *rng.Source) (*ConflictModel, error) {
	if ltot < 1 {
		return nil, fmt.Errorf("lockmgr: ltot %d < 1", ltot)
	}
	if src == nil {
		return nil, fmt.Errorf("lockmgr: nil randomness source")
	}
	return &ConflictModel{ltot: ltot, src: src}, nil
}

// Ltot returns the total number of locks in the modeled database.
func (m *ConflictModel) Ltot() int { return m.ltot }

// Decide draws one conflict decision against the given active holders.
// It returns (blockerID, true) if the request is blocked by that holder,
// or (0, false) if the request may proceed. Holders with non-positive
// lock counts contribute nothing. If the holders jointly cover the whole
// lock space the request is always blocked.
func (m *ConflictModel) Decide(holders []Holder) (blockerID int, blocked bool) {
	if len(holders) == 0 {
		return 0, false
	}
	p := m.src.Float64OC() // uniform on (0,1], per the paper
	cum := 0.0
	for _, h := range holders {
		if h.Locks <= 0 {
			continue
		}
		cum += float64(h.Locks) / float64(m.ltot)
		if p <= cum {
			return h.ID, true
		}
	}
	return 0, false
}

// BlockProbability returns the analytic probability that a request is
// blocked given the holders, min(1, sum Lj/ltot). It is used by tests and
// by the adaptive scheduler's denial-rate estimator.
func (m *ConflictModel) BlockProbability(holders []Holder) float64 {
	sum := 0
	for _, h := range holders {
		if h.Locks > 0 {
			sum += h.Locks
		}
	}
	p := float64(sum) / float64(m.ltot)
	if p > 1 {
		p = 1
	}
	return p
}
