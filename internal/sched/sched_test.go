package sched

import "testing"

func TestUnlimited(t *testing.T) {
	var p Unlimited
	for _, n := range []int{0, 1, 1000000} {
		if !p.CanAdmit(n) {
			t.Fatalf("Unlimited refused at %d", n)
		}
	}
	p.Observe(true)
	p.Observe(false)
	if p.Name() != "unlimited" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestFixedMPL(t *testing.T) {
	p := FixedMPL{Limit: 5}
	if !p.CanAdmit(4) {
		t.Fatal("refused below limit")
	}
	if p.CanAdmit(5) {
		t.Fatal("admitted at limit")
	}
	if p.CanAdmit(6) {
		t.Fatal("admitted above limit")
	}
	if p.Name() != "mpl(5)" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestNewAdaptiveMPLValidation(t *testing.T) {
	bad := []struct {
		min, max, window int
		target           float64
	}{
		{0, 5, 10, 0.3},
		{5, 4, 10, 0.3},
		{1, 5, 0, 0.3},
		{1, 5, 10, 0},
		{1, 5, 10, 1},
		{1, 5, 10, -0.5},
	}
	for _, c := range bad {
		if _, err := NewAdaptiveMPL(c.min, c.max, c.window, c.target); err == nil {
			t.Errorf("invalid config %+v accepted", c)
		}
	}
	if _, err := NewAdaptiveMPL(1, 10, 5, 0.3); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestAdaptiveMPLStartsAtMax(t *testing.T) {
	p, _ := NewAdaptiveMPL(1, 20, 10, 0.3)
	if p.Limit() != 20 {
		t.Fatalf("initial limit %d, want 20", p.Limit())
	}
	if !p.CanAdmit(19) || p.CanAdmit(20) {
		t.Fatal("CanAdmit inconsistent with limit")
	}
}

func TestAdaptiveMPLDecreasesUnderDenials(t *testing.T) {
	p, _ := NewAdaptiveMPL(1, 16, 4, 0.25)
	// One full window of denials: limit halves 16 -> 8.
	for i := 0; i < 4; i++ {
		p.Observe(false)
	}
	if p.Limit() != 8 {
		t.Fatalf("limit after denial window %d, want 8", p.Limit())
	}
	// Keep denying: 8 -> 4 -> 2 -> 1, floored at min.
	for w := 0; w < 5; w++ {
		for i := 0; i < 4; i++ {
			p.Observe(false)
		}
	}
	if p.Limit() != 1 {
		t.Fatalf("limit floored at %d, want 1", p.Limit())
	}
}

func TestAdaptiveMPLRecoversUnderGrants(t *testing.T) {
	p, _ := NewAdaptiveMPL(1, 16, 4, 0.25)
	for i := 0; i < 4; i++ {
		p.Observe(false)
	}
	if p.Limit() != 8 {
		t.Fatalf("setup failed: limit %d", p.Limit())
	}
	// Clean windows: additive increase back toward max.
	for w := 0; w < 3; w++ {
		for i := 0; i < 4; i++ {
			p.Observe(true)
		}
	}
	if p.Limit() != 11 {
		t.Fatalf("limit after 3 clean windows %d, want 11", p.Limit())
	}
	// Cap at max.
	for w := 0; w < 20; w++ {
		for i := 0; i < 4; i++ {
			p.Observe(true)
		}
	}
	if p.Limit() != 16 {
		t.Fatalf("limit capped at %d, want 16", p.Limit())
	}
}

func TestAdaptiveMPLWindowBoundary(t *testing.T) {
	p, _ := NewAdaptiveMPL(1, 10, 4, 0.5)
	// 1 denial in a window of 4 = 25% <= 50% target: additive increase
	// (already at max, stays).
	p.Observe(false)
	for i := 0; i < 3; i++ {
		p.Observe(true)
	}
	if p.Limit() != 10 {
		t.Fatalf("limit %d, want 10", p.Limit())
	}
	// 3 denials of 4 = 75% > 50%: halve.
	for i := 0; i < 3; i++ {
		p.Observe(false)
	}
	p.Observe(true)
	if p.Limit() != 5 {
		t.Fatalf("limit %d, want 5", p.Limit())
	}
}

func TestAdaptiveMPLName(t *testing.T) {
	p, _ := NewAdaptiveMPL(2, 30, 10, 0.3)
	if p.Name() != "adaptive[2..30]" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p, _ := NewAdaptiveMPL(1, 20, 10, 0.3)
	c := p.Clone()
	for i := 0; i < 10; i++ {
		c.Observe(false)
	}
	if got := c.(*AdaptiveMPL).Limit(); got != 10 {
		t.Fatalf("clone's limit %d after a denied window, want 10", got)
	}
	if p.Limit() != 20 {
		t.Fatalf("original's limit %d after the clone adapted, want 20", p.Limit())
	}
	for _, s := range []Policy{Unlimited{}, FixedMPL{Limit: 3}} {
		if s.Clone() != s {
			t.Errorf("%s: clone differs from the stateless original", s.Name())
		}
	}
}
