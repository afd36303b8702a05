package model

import (
	"math"
	"testing"

	"granulock/internal/rng"
	"granulock/internal/workload"
)

// conflictSim hand-builds just enough of a simulation for decideConflict:
// a conflict space of ltot, the draw's source, and one active
// transaction per entry of locks, with ids 1, 2, ... in active order.
func conflictSim(ltot int, src *rng.Source, locks ...int) *simulation {
	s := &simulation{srcConflict: src, ltotEff: float64(ltot)}
	for i, l := range locks {
		s.active = append(s.active, &txn{id: i + 1, spec: workload.Spec{Locks: l}})
	}
	return s
}

// blockerID is the id of decideConflict's blocker, or 0 on a grant.
func blockerID(s *simulation) int {
	if b := s.decideConflict(&txn{}); b != nil {
		return b.id
	}
	return 0
}

func TestDecideConflictNoActiveNoDraw(t *testing.T) {
	src, twin := rng.New(1), rng.New(1)
	s := conflictSim(10, src)
	for i := 0; i < 1000; i++ {
		if b := s.decideConflict(&txn{}); b != nil {
			t.Fatalf("blocked by txn %d with nothing active", b.id)
		}
	}
	if got, want := src.Float64OC(), twin.Float64OC(); got != want {
		t.Fatalf("the draw's source moved with nothing active: next value %v, want %v", got, want)
	}
}

func TestDecideConflictFullCoverageAlwaysBlocks(t *testing.T) {
	// One holder owning every lock blocks every request — the ltot=1
	// case of the paper where "only one transaction can access the
	// database".
	s := conflictSim(1, rng.New(2), 1)
	for i := 0; i < 1000; i++ {
		if b := blockerID(s); b != 1 {
			t.Fatalf("draw %d: not blocked by the sole full holder (blocker %d)", i, b)
		}
	}
}

func TestDecideConflictZeroLockHoldersIgnored(t *testing.T) {
	s := conflictSim(10, rng.New(3), 0, -5)
	for i := 0; i < 1000; i++ {
		if b := blockerID(s); b != 0 {
			t.Fatalf("blocked by txn %d, which holds no locks", b)
		}
	}
}

func TestDecideConflictBlockingFrequency(t *testing.T) {
	// Active transactions covering 30% of the lock space block about
	// 30% of requests.
	s := conflictSim(100, rng.New(4), 10, 20)
	const n = 200000
	blocked := 0
	for i := 0; i < n; i++ {
		if blockerID(s) != 0 {
			blocked++
		}
	}
	if got := float64(blocked) / n; math.Abs(got-0.3) > 0.005 {
		t.Fatalf("blocking rate %v, want about 0.3", got)
	}
}

func TestDecideConflictBlockerShare(t *testing.T) {
	// Given a block, the blocker is Tj with probability Lj / sum(L).
	s := conflictSim(100, rng.New(5), 10, 40)
	var counts [3]int
	const n = 200000
	for i := 0; i < n; i++ {
		counts[blockerID(s)]++
	}
	total := counts[1] + counts[2]
	if total == 0 {
		t.Fatal("never blocked")
	}
	if share := float64(counts[1]) / float64(total); math.Abs(share-0.2) > 0.01 {
		t.Fatalf("blocker 1 share %v, want about 0.2", share)
	}
}

func TestDecideConflictOversubscribedAlwaysBlocks(t *testing.T) {
	// Active transactions jointly exceeding the lock space leave no
	// remainder partition, so every draw blocks.
	s := conflictSim(10, rng.New(6), 7, 8)
	for i := 0; i < 1000; i++ {
		if blockerID(s) == 0 {
			t.Fatal("granted despite an oversubscribed lock space")
		}
	}
}

func TestDecideConflictDeterministicForSeed(t *testing.T) {
	decisions := func() []int {
		s := conflictSim(50, rng.New(99), 10, 15)
		out := make([]int, 100)
		for i := range out {
			out[i] = blockerID(s)
		}
		return out
	}
	a, b := decisions(), decisions()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("conflict decisions diverged at %d", i)
		}
	}
}

func TestConflictSpace(t *testing.T) {
	for _, c := range []struct {
		ltot int
		skew float64
		want int
	}{
		{100, 0, 100},
		{100, 0.9, 10},
		{5, 0.5, 3}, // 2.5 rounds up
		{1, 0.9, 1}, // 0.1 rounds to 0, floored at 1
	} {
		p := Params{Ltot: c.ltot, AccessSkew: c.skew}
		if got := p.ConflictSpace(); got != c.want {
			t.Errorf("ConflictSpace(ltot %d, skew %v) = %d, want %d", c.ltot, c.skew, got, c.want)
		}
	}
}

func BenchmarkDecideConflict(b *testing.B) {
	locks := make([]int, 10)
	for i := range locks {
		locks[i] = 25
	}
	s := conflictSim(5000, rng.New(1), locks...)
	t := &txn{}
	for i := 0; i < b.N; i++ {
		s.decideConflict(t)
	}
}
