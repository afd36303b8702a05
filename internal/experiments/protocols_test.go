package experiments

import (
	"testing"

	"granulock/internal/engine"
	"granulock/internal/engine/cc"
)

// TestProtoGranularityFigure runs the engine-driven granularity sweep
// at a reduced grid via the public Run path and checks the structural
// claims: one series per registered protocol (all six built-ins), every
// protocol commits every transaction (throughput > 0 everywhere), and
// the cross-validation panel agrees on the trend — blocking falls from
// the coarsest to the finest granularity for both the engine and the
// simulator. Every cell also checks that its run conserved the total
// balance (EngineCell.Run).
func TestProtoGranularityFigure(t *testing.T) {
	f, err := Run("ext-proto-granularity", Options{TMax: 300, Seed: 5, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 3 {
		t.Fatalf("%d panels, want 3", len(f.Panels))
	}
	protocols := f.Panels[0].Series
	if len(protocols) != len(cc.Names()) {
		t.Fatalf("%d protocol series, want %d", len(protocols), len(cc.Names()))
	}
	seen := make(map[string]bool)
	for _, s := range protocols {
		seen[s.Label] = true
		for _, p := range s.Points {
			if p.M.Throughput <= 0 {
				t.Errorf("%s at granules=%v: throughput %v", s.Label, p.X, p.M.Throughput)
			}
			if p.M.TotCom != 8*60 {
				t.Errorf("%s at granules=%v: committed %d, want %d", s.Label, p.X, p.M.TotCom, 8*60)
			}
		}
	}
	for _, want := range []string{
		engine.Conservative, engine.ClaimAsNeeded, engine.Hierarchical,
		engine.WoundWait, engine.WaitDie, engine.Optimistic,
	} {
		if !seen[want] {
			t.Errorf("protocol %q missing from figure", want)
		}
	}
	// Cross-validation: both blocking curves fall from coarsest to finest.
	for _, s := range f.Panels[2].Series {
		first := s.Points[0].M.DenialRate
		last := s.Points[len(s.Points)-1].M.DenialRate
		if !(last < first) {
			t.Errorf("%s: blocking did not fall with granularity: %v -> %v", s.Label, first, last)
		}
	}
}

// TestProtoContentionFigure checks the contention sweep structurally:
// all protocols present, all cells committed, and restart accounting
// visible through the restarts-per-commit panel accessor.
func TestProtoContentionFigure(t *testing.T) {
	f, err := Run("ext-proto-contention", Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 2 {
		t.Fatalf("%d panels, want 2", len(f.Panels))
	}
	if len(f.Panels[0].Series) != len(cc.Names()) {
		t.Fatalf("%d series, want %d", len(f.Panels[0].Series), len(cc.Names()))
	}
	for _, s := range f.Panels[0].Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s: %d points, want 4", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.M.TotCom != 8*60 {
				t.Errorf("%s at skew=%v: committed %d, want %d", s.Label, p.X, p.M.TotCom, 8*60)
			}
		}
	}
}

// TestProtoFigureIDsRegistered pins the figure family into the public
// experiment registry (the facade and cmd/sweep list through ExtIDs).
func TestProtoFigureIDsRegistered(t *testing.T) {
	ids := make(map[string]bool)
	for _, id := range ExtIDs() {
		ids[id] = true
	}
	for _, want := range []string{"ext-proto-contention", "ext-proto-granularity", "ext-proto-mpl"} {
		if !ids[want] {
			t.Errorf("%s not in ExtIDs", want)
		}
	}
}

// TestProtoMPLFigure runs the one engine-backed figure the tests above
// do not. Like theirs, each of its cells checks the bank-transfer
// invariant and fails the figure with an error naming the protocol.
func TestProtoMPLFigure(t *testing.T) {
	if _, err := Run("ext-proto-mpl", Options{Replications: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
}
