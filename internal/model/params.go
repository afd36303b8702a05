// Package model implements the paper's primary contribution: the closed
// discrete-event simulation model of a shared-nothing multiprocessor
// database system with physical locking (Dandamudi & Au, ICDE 1991, §2),
// an extension of the Ries–Stonebraker uniprocessor model.
//
// A fixed population of ntrans transactions cycles through the system:
// each requests all of its locks conservatively (paying CPU and I/O lock
// overhead shared across every processor at preemptive priority),
// suffers probabilistic lock conflicts, splits into sub-transactions
// over the processors as dictated by the partitioning strategy, consumes
// disk then CPU service, and on completion releases its blocked set and
// is replaced by a fresh transaction.
package model

import (
	"fmt"

	"granulock/internal/partition"
	"granulock/internal/sched"
	"granulock/internal/server"
	"granulock/internal/workload"
)

// Params are the input parameters of the simulation model; names follow
// the paper (§2, Table 1).
type Params struct {
	// DBSize is dbsize: the number of accessible entities in the
	// database.
	DBSize int
	// Ltot is the number of locks (granules): 1 = whole-database
	// locking, DBSize = entity-level locking.
	Ltot int
	// NTrans is the fixed number of transactions in the closed system
	// (the number of attached terminals).
	NTrans int
	// MaxTransize bounds transaction sizes: NUᵢ ~ U(1, MaxTransize).
	// Ignored when Classes is non-empty.
	MaxTransize int
	// Classes optionally defines a multi-class size mix (§3.6). When
	// empty, a single class with MaxTransize is used.
	Classes []workload.Class
	// CPUTime is cputime: CPU time units to process one entity.
	CPUTime float64
	// IOTime is iotime: I/O time units to process one entity.
	IOTime float64
	// LockCPUTime is lcputime: CPU time units to request/set/release one
	// lock.
	LockCPUTime float64
	// LockIOTime is liotime: I/O time units to request/set/release one
	// lock (0 models a main-memory lock table, §3.3).
	LockIOTime float64
	// NPros is npros: the number of processors, each with a private CPU
	// and disk.
	NPros int
	// TMax is tmax: the number of time units to simulate.
	TMax float64
	// Warmup discards all statistics accumulated before this time,
	// removing initial-transient bias (standard simulation methodology;
	// the paper reports whole-run statistics, so the default is 0).
	// Must satisfy 0 <= Warmup < TMax.
	Warmup float64
	// Partitioning selects horizontal or random declustering (§3.4).
	Partitioning partition.Strategy
	// Placement selects the granule placement strategy determining lock
	// demand (§3.5).
	Placement workload.Placement
	// Seed makes runs reproducible; equal Params (including Seed) yield
	// identical Metrics.
	Seed uint64

	// ReleasedToTail, when true, re-queues transactions released from
	// the blocked queue at the pending-queue tail instead of its head.
	// The paper does not pin this down; head is the default (released
	// transactions have waited longest). Ablated in the benchmarks.
	ReleasedToTail bool
	// DedicatedLockProcessor, when true, runs all lock work on processor
	// 0 instead of sharing it across all processors — an ablation of the
	// paper's "processors share the work for locking mechanism"
	// assumption.
	DedicatedLockProcessor bool
	// Scheduler optionally bounds admission (transaction-level
	// scheduling, §3.7). Nil admits everything.
	Scheduler sched.Policy
	// Discipline selects the sub-transaction service order at each
	// resource (FCFS, the default, or SJF). Companion work to the
	// paper (ref [3]) reports this has only a marginal effect on the
	// granularity conclusions.
	Discipline server.Discipline
	// AccessSkew extends the paper's uniform-access conflict model with
	// hot spots: conflicts are drawn as if only a (1−AccessSkew)
	// fraction of the lock space received traffic, i.e. the effective
	// conflict space is ltot·(1−AccessSkew). Lock *costs* are
	// unaffected — a skewed workload still sets the same number of
	// locks, it just collides more. 0 (the default) is the paper's
	// model; must lie in [0, 1).
	AccessSkew float64
}

// Validate checks the parameters, returning a descriptive error for the
// first violation found.
func (p *Params) Validate() error {
	switch {
	case p.DBSize < 1:
		return fmt.Errorf("model: dbsize %d < 1", p.DBSize)
	case p.Ltot < 1 || p.Ltot > p.DBSize:
		return fmt.Errorf("model: ltot %d outside [1, dbsize=%d]", p.Ltot, p.DBSize)
	case p.NTrans < 1:
		return fmt.Errorf("model: ntrans %d < 1", p.NTrans)
	case p.NPros < 1:
		return fmt.Errorf("model: npros %d < 1", p.NPros)
	case p.TMax <= 0:
		return fmt.Errorf("model: tmax %v <= 0", p.TMax)
	case p.CPUTime < 0 || p.IOTime < 0 || p.LockCPUTime < 0 || p.LockIOTime < 0:
		return fmt.Errorf("model: negative service time (cputime=%v iotime=%v lcputime=%v liotime=%v)",
			p.CPUTime, p.IOTime, p.LockCPUTime, p.LockIOTime)
	case p.CPUTime+p.IOTime+p.LockCPUTime+p.LockIOTime == 0:
		return fmt.Errorf("model: all service times zero; simulated time cannot advance")
	case p.Warmup < 0 || p.Warmup >= p.TMax:
		return fmt.Errorf("model: warmup %v outside [0, tmax=%v)", p.Warmup, p.TMax)
	}
	if len(p.Classes) == 0 && (p.MaxTransize < 1 || p.MaxTransize > p.DBSize) {
		return fmt.Errorf("model: maxtransize %d outside [1, dbsize=%d]", p.MaxTransize, p.DBSize)
	}
	if p.Partitioning != partition.Horizontal && p.Partitioning != partition.Random {
		return fmt.Errorf("model: unknown partitioning strategy %d", int(p.Partitioning))
	}
	if p.Placement < workload.PlacementBest || p.Placement > workload.PlacementRandom {
		return fmt.Errorf("model: unknown placement %d", int(p.Placement))
	}
	if p.Discipline != server.FCFS && p.Discipline != server.SJF {
		return fmt.Errorf("model: unknown service discipline %d", int(p.Discipline))
	}
	if p.AccessSkew < 0 || p.AccessSkew >= 1 {
		return fmt.Errorf("model: access skew %v outside [0, 1)", p.AccessSkew)
	}
	return nil
}

// ClassMix returns the class mix the workload draws from: Classes, or
// one class of MaxTransize when Classes is empty.
func (p *Params) ClassMix() []workload.Class {
	if len(p.Classes) > 0 {
		return p.Classes
	}
	return workload.Uniform(p.MaxTransize)
}

// ConflictSpace is the number of locks conflicts are drawn over: hot
// spots shrink it, so with skew σ the traffic behaves as if it hit only
// ltot·(1−σ) granules, rounded and floored at 1.
func (p *Params) ConflictSpace() int {
	n := int(float64(p.Ltot)*(1-p.AccessSkew) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Metrics are the model's output parameters (§2), plus auxiliary
// counters used by the experiments.
type Metrics struct {
	// TotCPUs is totcpus: time units the system's CPUs were busy
	// (transactions plus lock work), summed over processors.
	TotCPUs float64
	// TotIOs is totios: the same for the disks.
	TotIOs float64
	// LockCPUs is lockcpus: CPU time spent requesting, setting and
	// releasing locks, summed over processors.
	LockCPUs float64
	// LockIOs is lockios: the same for the disks.
	LockIOs float64
	// UsefulCPUs is usefulcpus = (totcpus − lockcpus)/npros: the average
	// per-processor CPU time spent processing transactions.
	UsefulCPUs float64
	// UsefulIOs is usefulios = (totios − lockios)/npros.
	UsefulIOs float64
	// TotCom is totcom: transactions completed by tmax.
	TotCom int
	// Throughput is totcom/tmax: completed transactions per time unit.
	Throughput float64
	// MeanResponse is the average response time of completed
	// transactions (pending-queue entry to completion).
	MeanResponse float64

	// LockRequests counts lock-request attempts (a blocked transaction
	// re-requests after release, paying again).
	LockRequests int
	// LockDenials counts attempts that were blocked.
	LockDenials int
	// DenialRate is LockDenials/LockRequests (0 when no requests).
	DenialRate float64
	// MeanActive is the time-average number of transactions holding
	// locks (the attained concurrency level).
	MeanActive float64
	// CompletedEntities is the total entities processed by completed
	// transactions.
	CompletedEntities int
	// Events is the number of discrete events the simulator executed
	// over the whole run (warmup included): the cost of producing this
	// Metrics, used by the benchmark harness to report events/sec. It is
	// diagnostic, not a model output.
	Events uint64
}
