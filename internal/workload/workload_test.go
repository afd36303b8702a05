package workload

import (
	"math"
	"testing"
	"testing/quick"

	"granulock/internal/rng"
)

func TestLocksRequiredBest(t *testing.T) {
	cases := []struct{ nu, ltot, dbsize, want int }{
		{1, 1, 5000, 1},
		{5000, 1, 5000, 1},
		{250, 5000, 5000, 250}, // entity-level: one lock per entity
		{500, 100, 5000, 10},   // 10% of db -> 10% of locks
		{1, 5000, 5000, 1},
		{499, 10, 5000, 1}, // fits within one granule's worth
		{501, 10, 5000, 2}, // spills into a second granule
	}
	for _, c := range cases {
		if got := LocksRequired(PlacementBest, c.nu, c.ltot, c.dbsize); got != c.want {
			t.Errorf("best(nu=%d, ltot=%d, dbsize=%d) = %d, want %d", c.nu, c.ltot, c.dbsize, got, c.want)
		}
	}
}

func TestLocksRequiredWorst(t *testing.T) {
	cases := []struct{ nu, ltot, dbsize, want int }{
		{250, 5000, 5000, 250}, // fewer entities than locks: one each
		{250, 100, 5000, 100},  // more entities than locks: all locks
		{1, 1, 5000, 1},
		{5000, 5000, 5000, 5000},
	}
	for _, c := range cases {
		if got := LocksRequired(PlacementWorst, c.nu, c.ltot, c.dbsize); got != c.want {
			t.Errorf("worst(nu=%d, ltot=%d, dbsize=%d) = %d, want %d", c.nu, c.ltot, c.dbsize, got, c.want)
		}
	}
}

func TestLocksRequiredRandomBetweenExtremes(t *testing.T) {
	// Yao's estimate must lie between best and worst placement. When
	// ltot does not divide dbsize the granules have fractional average
	// size and the paper's ceil-based best formula can overshoot the
	// true minimum by one, so allow one lock of slack on the low side.
	f := func(nuRaw, ltotRaw uint16) bool {
		const dbsize = 5000
		nu := int(nuRaw)%dbsize + 1
		ltot := int(ltotRaw)%dbsize + 1
		best := LocksRequired(PlacementBest, nu, ltot, dbsize)
		worst := LocksRequired(PlacementWorst, nu, ltot, dbsize)
		random := LocksRequired(PlacementRandom, nu, ltot, dbsize)
		return best-1 <= random && random <= worst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLocksRequiredRandomBetweenExtremesDividing(t *testing.T) {
	// With ltot dividing dbsize the envelope is strict.
	for _, ltot := range []int{1, 2, 4, 5, 10, 20, 25, 50, 100, 125, 200, 250, 500, 1000, 2500, 5000} {
		for _, nu := range []int{1, 7, 25, 250, 999, 2500, 5000} {
			best := LocksRequired(PlacementBest, nu, ltot, 5000)
			worst := LocksRequired(PlacementWorst, nu, ltot, 5000)
			random := LocksRequired(PlacementRandom, nu, ltot, 5000)
			if best > random || random > worst {
				t.Fatalf("nu=%d ltot=%d: best=%d random=%d worst=%d", nu, ltot, best, random, worst)
			}
		}
	}
}

func TestLocksRequiredExtremeGranularities(t *testing.T) {
	// ltot=1: every placement needs exactly the single lock.
	for _, p := range []Placement{PlacementBest, PlacementWorst, PlacementRandom} {
		if got := LocksRequired(p, 250, 1, 5000); got != 1 {
			t.Errorf("%v with ltot=1: %d locks, want 1", p, got)
		}
	}
	// ltot=dbsize: every placement needs one lock per entity.
	for _, p := range []Placement{PlacementBest, PlacementWorst, PlacementRandom} {
		if got := LocksRequired(p, 250, 5000, 5000); got != 250 {
			t.Errorf("%v with ltot=dbsize: %d locks, want 250", p, got)
		}
	}
}

func TestLocksRequiredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nu > dbsize did not panic")
		}
	}()
	LocksRequired(PlacementBest, 6000, 10, 5000)
}

func TestPlacementStrings(t *testing.T) {
	for _, p := range []Placement{PlacementBest, PlacementWorst, PlacementRandom} {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip of %v failed: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Fatal("bogus placement parsed")
	}
	if Placement(9).String() == "" {
		t.Fatal("unknown placement String empty")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	src := rng.New(1)
	bad := []struct {
		name    string
		dbsize  int
		ltot    int
		p       Placement
		classes []Class
		src     *rng.Source
	}{
		{"dbsize", 0, 1, PlacementBest, Uniform(1), src},
		{"ltot low", 100, 0, PlacementBest, Uniform(10), src},
		{"ltot high", 100, 101, PlacementBest, Uniform(10), src},
		{"placement", 100, 10, Placement(9), Uniform(10), src},
		{"no classes", 100, 10, PlacementBest, nil, src},
		{"class size", 100, 10, PlacementBest, Uniform(101), src},
		{"class size zero", 100, 10, PlacementBest, Uniform(0), src},
		{"weight", 100, 10, PlacementBest, []Class{{MaxTransize: 10, Weight: 0}}, src},
		{"nil src", 100, 10, PlacementBest, Uniform(10), nil},
	}
	for _, c := range bad {
		if _, err := NewGenerator(c.dbsize, c.ltot, c.p, c.classes, c.src); err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
	if _, err := NewGenerator(5000, 100, PlacementBest, Uniform(500), src); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestGeneratorSizesUniform(t *testing.T) {
	g, err := NewGenerator(5000, 100, PlacementBest, Uniform(500), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	sum := 0.0
	minSeen, maxSeen := 1<<30, 0
	for i := 0; i < n; i++ {
		s := g.Next()
		if s.Entities < 1 || s.Entities > 500 {
			t.Fatalf("entities %d outside [1,500]", s.Entities)
		}
		if s.Locks != LocksRequired(PlacementBest, s.Entities, 100, 5000) {
			t.Fatalf("lock demand inconsistent: %+v", s)
		}
		sum += float64(s.Entities)
		if s.Entities < minSeen {
			minSeen = s.Entities
		}
		if s.Entities > maxSeen {
			maxSeen = s.Entities
		}
	}
	mean := sum / n
	if math.Abs(mean-250.5) > 2 {
		t.Fatalf("mean size %v, want about 250.5", mean)
	}
	if minSeen != 1 || maxSeen != 500 {
		t.Fatalf("size range [%d,%d], want [1,500]", minSeen, maxSeen)
	}
}

func TestGeneratorMixFrequencies(t *testing.T) {
	// The §3.6 mix: 80% small (max 50), 20% large (max 500).
	g, err := NewGenerator(5000, 100, PlacementBest, SmallLargeMix(50, 500, 0.8), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	counts := [2]int{}
	for i := 0; i < n; i++ {
		s := g.Next()
		counts[s.Class]++
		limit := 50
		if s.Class == 1 {
			limit = 500
		}
		if s.Entities < 1 || s.Entities > limit {
			t.Fatalf("class %d size %d outside [1,%d]", s.Class, s.Entities, limit)
		}
	}
	frac := float64(counts[0]) / n
	if math.Abs(frac-0.8) > 0.01 {
		t.Fatalf("small-class fraction %v, want about 0.8", frac)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []Spec {
		g, _ := NewGenerator(5000, 100, PlacementRandom, Uniform(500), rng.New(7))
		out := make([]Spec, 100)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// MeanSize returns the analytic mean transaction size of the mix,
// ≈ Σ wᵢ·(maxᵢ+1)/2.
func (g *Generator) MeanSize() float64 {
	total := 0.0
	for _, c := range g.classes {
		total += c.Weight
	}
	mean := 0.0
	for _, c := range g.classes {
		mean += c.Weight / total * float64(c.MaxTransize+1) / 2
	}
	return mean
}

func TestMeanSize(t *testing.T) {
	g, _ := NewGenerator(5000, 100, PlacementBest, Uniform(500), rng.New(1))
	if got := g.MeanSize(); math.Abs(got-250.5) > 1e-9 {
		t.Fatalf("MeanSize = %v, want 250.5", got)
	}
	gm, _ := NewGenerator(5000, 100, PlacementBest, SmallLargeMix(50, 500, 0.8), rng.New(1))
	want := 0.8*25.5 + 0.2*250.5
	if got := gm.MeanSize(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mix MeanSize = %v, want %v", got, want)
	}
}

func TestGeneratorPlacementAccessor(t *testing.T) {
	g, _ := NewGenerator(5000, 100, PlacementWorst, Uniform(500), rng.New(1))
	if g.Placement() != PlacementWorst {
		t.Fatal("Placement accessor wrong")
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g, _ := NewGenerator(5000, 100, PlacementRandom, Uniform(500), rng.New(1))
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}
