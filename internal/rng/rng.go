// Package rng provides a small, deterministic pseudo-random number
// generator with splittable streams and the distributions the simulation
// model needs.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014): a 64-bit linear
// congruential state with a permuted 32-bit output. It is fast, has a
// period of 2^64 per stream, and — unlike math/rand's global source —
// gives the simulator bit-for-bit reproducible runs for a given seed on
// every platform. Distinct logical uses of randomness (transaction sizes,
// conflict draws, processor selection, ...) should draw from distinct
// streams obtained via Stream so that changing the consumption pattern of
// one use does not perturb the others.
package rng

import "math"

// mulPCG is the default LCG multiplier from the PCG reference
// implementation.
const mulPCG = 6364136223846793005

// Source is a single PCG-XSH-RR 64/32 stream. It is not safe for
// concurrent use; give each goroutine its own Source (see Stream).
type Source struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a Source seeded with seed on the default stream.
func New(seed uint64) *Source {
	return NewStream(seed, 0)
}

// NewStream returns a Source seeded with seed on the given stream.
// Sources with the same seed but different streams produce statistically
// independent sequences.
func NewStream(seed, stream uint64) *Source {
	s := &Source{inc: stream<<1 | 1}
	// The reference seeding procedure: advance once, add the seed,
	// advance again, so that nearby seeds do not yield nearby states.
	s.state = 0
	s.Uint32()
	s.state += seed
	s.Uint32()
	return s
}

// Stream derives a new independent Source from s for sub-stream i.
// The derivation consumes no randomness from s (the parent's sequence is
// unaffected), so adding or removing streams does not disturb existing
// ones, yet the child depends on the parent's seed and stream.
func (s *Source) Stream(i uint64) *Source {
	// Mix the parent's state, its stream id and the child index through
	// SplitMix64 so that child streams are well separated across both
	// seeds and indices.
	mixed := splitmix64(s.state) ^ splitmix64(s.inc^(i+0x9e3779b97f4a7c15))
	return NewStream(mixed, splitmix64(i)|1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint32 returns the next 32 pseudo-random bits.
func (s *Source) Uint32() uint32 {
	old := s.state
	s.state = old*mulPCG + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	return uint64(s.Uint32())<<32 | uint64(s.Uint32())
}

// Float64 returns a uniform value in the half-open interval [0, 1).
func (s *Source) Float64() float64 {
	// 53 random bits scaled by 2^-53: the standard full-precision method.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64OC returns a uniform value in the half-open interval (0, 1].
// The lock-conflict computation of the paper partitions exactly this
// interval, so zero must be impossible and one possible.
func (s *Source) Float64OC() float64 {
	return 1 - s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation on 64 bits keeps
	// the modulo bias below 2^-64 without a rejection loop in practice.
	v := s.Uint64()
	hi, _ := mul64(v, uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// IntRange returns a uniform integer in the closed interval [lo, hi].
// It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// It panics if mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	return -mean * math.Log(s.Float64OC())
}

// Subset returns k distinct integers drawn uniformly from [0, n),
// in random order. It panics if k > n or k < 0.
func (s *Source) Subset(k, n int) []int {
	if k < 0 || k > n {
		panic("rng: Subset with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over a dense index table. For the model's
	// sizes (n = npros <= a few hundred) this is both exact and fast.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
