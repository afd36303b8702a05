package analytic

import (
	"fmt"
	"math"

	"granulock/internal/model"
	"granulock/internal/partition"
	"granulock/internal/workload"
)

// Prediction is the analytic estimate of one configuration.
type Prediction struct {
	// Throughput is the contention-adjusted estimate (transactions per
	// time unit).
	Throughput float64
	// NoContention is the MVA throughput ignoring lock conflicts — an
	// optimistic estimate that coincides with Throughput when conflicts
	// are rare.
	NoContention float64
	// MeanActive is the estimated mean number of transactions holding
	// locks.
	MeanActive float64
	// BlockProbability is the estimated per-request blocking
	// probability at the fixed point.
	BlockProbability float64
	// MeanLocks and MeanEntities echo the workload moments the estimate
	// used.
	MeanLocks    float64
	MeanEntities float64
}

// Predict analytically approximates the model's steady state for
// horizontally partitioned configurations.
//
// The approximation views one processor as a closed two-center (disk,
// CPU) queueing network whose population is the mean number of active
// transactions A (each active transaction keeps exactly one
// sub-transaction per processor). Per active cycle a transaction
// demands NU/npros entities of disk and CPU service plus its share of
// lock work, inflated by the expected number of lock-request attempts
// 1/(1−β): every denied request is re-issued and re-paid. The blocking
// probability β = min(A·LU/ltot′, βmax) follows the paper's conflict
// model over the simulator's own conflict space ltot′ =
// Params.ConflictSpace (ltot shrunk by AccessSkew), and a blocked
// transaction waits about half a blocker response time. Iterating A to
// a fixed point yields throughput by Little's law.
//
// The approximation deliberately ignores the serialization of the lock
// manager itself and the fork-join synchronization skew, so it is an
// optimistic estimate — closest to simulation at coarse-to-moderate
// granularity, degrading (but preserving ordering) at entity-level
// locking under heavy load.
func Predict(p model.Params) (Prediction, error) {
	if err := p.Validate(); err != nil {
		return Prediction{}, err
	}
	if p.Partitioning != partition.Horizontal {
		return Prediction{}, fmt.Errorf("analytic: only horizontal partitioning is supported (got %v)", p.Partitioning)
	}

	classes := p.ClassMix()
	nu := meanEntities(classes)
	lu := meanLocks(classes, p)
	npros := float64(p.NPros)

	demandsAt := func(attempts float64) []float64 {
		dio := nu/npros*p.IOTime + attempts*lu*p.LockIOTime/npros
		dcpu := nu/npros*p.CPUTime + attempts*lu*p.LockCPUTime/npros
		return []float64{dio, dcpu}
	}

	// Optimistic baseline: full population, single attempt, no blocking.
	noContX, _, err := MVA(demandsAt(1), p.NTrans)
	if err != nil {
		return Prediction{}, err
	}

	const betaMax = 0.95
	space := float64(p.ConflictSpace())
	ntrans := float64(p.NTrans)
	a := ntrans // start fully active
	var beta, r float64
	for iter := 0; iter < 500; iter++ {
		beta = a * lu / space
		if beta > betaMax {
			beta = betaMax
		}
		attempts := 1 / (1 - beta)
		_, r, err = MVAInterp(demandsAt(attempts), a)
		if err != nil {
			return Prediction{}, err
		}
		// Cycle = active response + expected blocked time. A blocked
		// transaction waits out the residual life of its blocker's
		// active phase, ~R/2, once per denied attempt; denied attempts
		// per completion = attempts − 1.
		cycle := r + (attempts-1)*(r/2)
		next := ntrans * r / cycle
		if next > ntrans {
			next = ntrans
		}
		if math.Abs(next-a) < 1e-10 {
			a = next
			break
		}
		a = 0.5*a + 0.5*next // damped to guarantee convergence
	}
	_, r, err = MVAInterp(demandsAt(1/(1-beta)), a)
	if err != nil {
		return Prediction{}, err
	}
	throughput := 0.0
	if r > 0 {
		throughput = a / r
	}
	return Prediction{
		Throughput:       throughput,
		NoContention:     noContX,
		MeanActive:       a,
		BlockProbability: beta,
		MeanLocks:        lu,
		MeanEntities:     nu,
	}, nil
}

// meanEntities returns E[NU] of the mix.
func meanEntities(classes []workload.Class) float64 {
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	mean := 0.0
	for _, c := range classes {
		mean += c.Weight / total * float64(c.MaxTransize+1) / 2
	}
	return mean
}

// meanLocks returns E[LU] of the mix by exact summation over the
// uniform size distribution of each class.
func meanLocks(classes []workload.Class, p model.Params) float64 {
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	mean := 0.0
	for _, c := range classes {
		sum := 0.0
		for nuv := 1; nuv <= c.MaxTransize; nuv++ {
			sum += float64(workload.LocksRequired(p.Placement, nuv, p.Ltot, p.DBSize))
		}
		mean += c.Weight / total * sum / float64(c.MaxTransize)
	}
	return mean
}

// OptimalGranularity sweeps the standard granularity grid analytically
// and returns the ltot maximizing predicted throughput. It evaluates in
// microseconds, making it usable as an online tuning heuristic; verify
// the answer with the simulator.
func OptimalGranularity(p model.Params, grid []int) (best int, curve []Prediction, err error) {
	if len(grid) == 0 {
		return 0, nil, fmt.Errorf("analytic: empty granularity grid")
	}
	curve = make([]Prediction, len(grid))
	bestX := -1.0
	for i, ltot := range grid {
		q := p
		q.Ltot = ltot
		pred, err := Predict(q)
		if err != nil {
			return 0, nil, err
		}
		curve[i] = pred
		if pred.Throughput > bestX {
			bestX = pred.Throughput
			best = ltot
		}
	}
	return best, curve, nil
}
