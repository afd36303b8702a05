package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("nearby seeds produced %d/1000 identical outputs", same)
	}
}

func TestStreamIndependence(t *testing.T) {
	parent := New(7)
	s0 := parent.Stream(0)
	s1 := parent.Stream(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint32() == s1.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams produced %d/1000 identical outputs", same)
	}
}

func TestStreamDependsOnParentSeed(t *testing.T) {
	// Regression test: streams derived from differently seeded parents
	// must differ, or every simulation seed would produce the same run.
	a := New(1).Stream(0)
	b := New(2).Stream(0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds produced %d/1000 identical outputs", same)
	}
}

func TestStreamDerivationConsumesNothing(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Stream(3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Stream derivation consumed randomness from the parent")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OCRange(t *testing.T) {
	s := New(4)
	for i := 0; i < 100000; i++ {
		f := s.Float64OC()
		if f <= 0 || f > 1 {
			t.Fatalf("Float64OC out of (0,1]: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(6)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(8)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn(%d): value %d seen %d times, want about %.0f", n, v, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(10)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(3,7) never produced %d", v)
		}
	}
	if got := s.IntRange(5, 5); got != 5 {
		t.Fatalf("IntRange(5,5) = %d, want 5", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2.5)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("Exp mean %v, want about 2.5", mean)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSubsetProperties(t *testing.T) {
	s := New(13)
	f := func(kRaw, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		sub := s.Subset(k, n)
		if len(sub) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range sub {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetCoverage(t *testing.T) {
	// Every element of [0,n) must be reachable in a k-subset.
	s := New(14)
	const n, k = 6, 3
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, v := range s.Subset(k, n) {
			seen[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			t.Fatalf("Subset(%d,%d) never produced %d", k, n, v)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(15)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Shuffle lost element %d: %v", v, xs)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(16)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.8) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.8) > 0.01 {
		t.Fatalf("Bernoulli(0.8) frequency %v", p)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}
