// Package workload generates the transaction population of the paper's
// model: sizes uniform on [1, maxtransize], lock demand derived from the
// granule-placement strategy, and optional mixes of size classes (§3.6's
// 80% small / 20% large experiment).
package workload

import (
	"fmt"

	"granulock/internal/rng"
	"granulock/internal/yao"
)

// Placement is the granule-placement strategy determining how many locks
// a transaction touching NU entities must set (paper §2 and §3.5).
type Placement int

const (
	// PlacementBest packs the required entities into as few granules as
	// possible: LU = ceil(NU·ltot/dbsize). Reasonable for sequential
	// access (range queries).
	PlacementBest Placement = iota
	// PlacementWorst spreads the entities over as many granules as
	// possible: LU = min(NU, ltot). The adversarial extreme.
	PlacementWorst
	// PlacementRandom scatters entities uniformly; LU is Yao's
	// mean-value estimate. Typical transactions fall between best and
	// random (Ries & Stonebraker's observation).
	PlacementRandom
)

var placementNames = [...]string{"best", "worst", "random"}

// String returns the placement name used throughout the experiment
// output.
func (p Placement) String() string {
	if p < 0 || int(p) >= len(placementNames) {
		return fmt.Sprintf("Placement(%d)", int(p))
	}
	return placementNames[p]
}

// ParsePlacement converts a name produced by String back to a Placement.
func ParsePlacement(s string) (Placement, error) {
	for i, n := range placementNames {
		if n == s {
			return Placement(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown placement %q", s)
}

// LocksRequired returns LU, the number of locks a transaction touching
// nu of dbsize entities must set under placement p with ltot granules.
// It panics on out-of-range arguments; Generator validates its inputs up
// front so this is an internal invariant.
func LocksRequired(p Placement, nu, ltot, dbsize int) int {
	if nu < 1 || nu > dbsize || ltot < 1 || ltot > dbsize {
		panic(fmt.Sprintf("workload: LocksRequired(nu=%d, ltot=%d, dbsize=%d) out of range", nu, ltot, dbsize))
	}
	switch p {
	case PlacementBest:
		// ceil(nu*ltot/dbsize) without floating point.
		return (nu*ltot + dbsize - 1) / dbsize
	case PlacementWorst:
		return min(nu, ltot)
	case PlacementRandom:
		return yao.Locks(dbsize, ltot, nu)
	default:
		panic(fmt.Sprintf("workload: unknown placement %d", int(p)))
	}
}

// Class is one transaction size class in a workload mix.
type Class struct {
	// MaxTransize bounds the class's transaction size: sizes are uniform
	// on [1, MaxTransize], so the class mean is ≈ MaxTransize/2.
	MaxTransize int
	// Weight is the class's relative frequency; weights need not sum to
	// one.
	Weight float64
}

// Spec describes one generated transaction.
type Spec struct {
	// Entities is NUᵢ, the number of database entities accessed.
	Entities int
	// Locks is LUᵢ, the lock demand implied by the placement strategy.
	Locks int
	// Class indexes the Class the transaction was drawn from.
	Class int
}

// Generator draws transaction Specs. It is deterministic for a given
// rng.Source and not safe for concurrent use.
type Generator struct {
	dbsize    int
	ltot      int
	placement Placement
	classes   []Class
	cum       []float64 // cumulative normalized weights
	src       *rng.Source

	// yaoCache is the per-generator fast path over the yao package's
	// global memo for PlacementRandom: a direct-mapped table of Locks by
	// transaction size. Sizes repeat heavily within a run (they are
	// uniform on [1, maxtransize]), so after warm-up every draw is one
	// array load. -1 marks unfilled entries; lazily allocated on the
	// first random-placement draw.
	yaoCache []int32
}

// NewGenerator validates the configuration and returns a Generator.
// classes must be non-empty with positive weights and MaxTransize within
// [1, dbsize].
func NewGenerator(dbsize, ltot int, placement Placement, classes []Class, src *rng.Source) (*Generator, error) {
	if dbsize < 1 {
		return nil, fmt.Errorf("workload: dbsize %d < 1", dbsize)
	}
	if ltot < 1 || ltot > dbsize {
		return nil, fmt.Errorf("workload: ltot %d outside [1, dbsize=%d]", ltot, dbsize)
	}
	if placement < PlacementBest || placement > PlacementRandom {
		return nil, fmt.Errorf("workload: unknown placement %d", int(placement))
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: no transaction classes")
	}
	if src == nil {
		return nil, fmt.Errorf("workload: nil randomness source")
	}
	total := 0.0
	for i, c := range classes {
		if c.MaxTransize < 1 || c.MaxTransize > dbsize {
			return nil, fmt.Errorf("workload: class %d maxtransize %d outside [1, dbsize=%d]", i, c.MaxTransize, dbsize)
		}
		if c.Weight <= 0 {
			return nil, fmt.Errorf("workload: class %d weight %v <= 0", i, c.Weight)
		}
		total += c.Weight
	}
	cum := make([]float64, len(classes))
	run := 0.0
	for i, c := range classes {
		run += c.Weight / total
		cum[i] = run
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return &Generator{
		dbsize:    dbsize,
		ltot:      ltot,
		placement: placement,
		classes:   append([]Class(nil), classes...),
		cum:       cum,
		src:       src,
	}, nil
}

// Uniform returns the single-class workload of §3.1–§3.4: sizes uniform
// on [1, maxtransize].
func Uniform(maxtransize int) []Class {
	return []Class{{MaxTransize: maxtransize, Weight: 1}}
}

// SmallLargeMix returns the §3.6 workload: fracSmall of transactions
// bounded by smallMax and the remainder bounded by largeMax.
func SmallLargeMix(smallMax, largeMax int, fracSmall float64) []Class {
	return []Class{
		{MaxTransize: smallMax, Weight: fracSmall},
		{MaxTransize: largeMax, Weight: 1 - fracSmall},
	}
}

// Next draws the next transaction.
func (g *Generator) Next() Spec {
	class := g.pickClass()
	nu := g.src.IntRange(1, g.classes[class].MaxTransize)
	return Spec{
		Entities: nu,
		Locks:    g.locksFor(nu),
		Class:    class,
	}
}

// locksFor returns LocksRequired(placement, nu, ltot, dbsize), caching
// Yao evaluations per size for the random placement (best and worst are
// already O(1) arithmetic).
func (g *Generator) locksFor(nu int) int {
	if g.placement != PlacementRandom {
		return LocksRequired(g.placement, nu, g.ltot, g.dbsize)
	}
	if g.yaoCache == nil {
		size := 0
		for _, c := range g.classes {
			if c.MaxTransize > size {
				size = c.MaxTransize
			}
		}
		g.yaoCache = make([]int32, size+1)
		for i := range g.yaoCache {
			g.yaoCache[i] = -1
		}
	}
	if v := g.yaoCache[nu]; v >= 0 {
		return int(v)
	}
	v := LocksRequired(g.placement, nu, g.ltot, g.dbsize)
	g.yaoCache[nu] = int32(v)
	return v
}

// pickClass draws a class index proportional to the weights.
func (g *Generator) pickClass() int {
	if len(g.cum) == 1 {
		return 0
	}
	p := g.src.Float64()
	for i, c := range g.cum {
		if p < c {
			return i
		}
	}
	return len(g.cum) - 1
}

// Placement returns the generator's placement strategy.
func (g *Generator) Placement() Placement { return g.placement }
