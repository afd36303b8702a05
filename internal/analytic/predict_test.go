package analytic

import (
	"math"
	"testing"

	"granulock/internal/model"
	"granulock/internal/partition"
	"granulock/internal/workload"
)

func paperBase() model.Params {
	return model.Params{
		DBSize:       5000,
		Ltot:         100,
		NTrans:       10,
		MaxTransize:  500,
		CPUTime:      0.05,
		IOTime:       0.2,
		LockCPUTime:  0.01,
		LockIOTime:   0.2,
		NPros:        10,
		TMax:         1000,
		Partitioning: partition.Horizontal,
		Placement:    workload.PlacementBest,
		Seed:         1,
	}
}

func TestPredictValidation(t *testing.T) {
	p := paperBase()
	p.DBSize = 0
	if _, err := Predict(p); err == nil {
		t.Fatal("invalid params accepted")
	}
	p = paperBase()
	p.Partitioning = partition.Random
	if _, err := Predict(p); err == nil {
		t.Fatal("random partitioning accepted")
	}
}

func TestPredictMoments(t *testing.T) {
	pred, err := Predict(paperBase())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.MeanEntities-250.5) > 1e-9 {
		t.Fatalf("mean entities %v, want 250.5", pred.MeanEntities)
	}
	// Best placement, ltot=100: LU = ceil(NU/50); mean over 1..500 is
	// close to (250.5)/50 ~ 5.5.
	if pred.MeanLocks < 5 || pred.MeanLocks > 6 {
		t.Fatalf("mean locks %v, want about 5.5", pred.MeanLocks)
	}
}

func TestPredictSanity(t *testing.T) {
	pred, err := Predict(paperBase())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Throughput <= 0 || pred.NoContention <= 0 {
		t.Fatalf("non-positive estimates: %+v", pred)
	}
	if pred.Throughput > pred.NoContention+1e-9 {
		t.Fatalf("contention estimate %v above optimistic bound %v", pred.Throughput, pred.NoContention)
	}
	if pred.MeanActive <= 0 || pred.MeanActive > float64(paperBase().NTrans) {
		t.Fatalf("mean active %v", pred.MeanActive)
	}
	if pred.BlockProbability < 0 || pred.BlockProbability > 0.95 {
		t.Fatalf("block probability %v", pred.BlockProbability)
	}
}

func TestPredictAgreesWithSimulationModerateGranularity(t *testing.T) {
	// At the paper's base point the disks saturate and the analytic
	// model should land close to the simulator.
	p := paperBase()
	pred, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.Throughput / m.Throughput
	if ratio < 0.75 || ratio > 1.35 {
		t.Fatalf("analytic %v vs simulated %v (ratio %v)", pred.Throughput, m.Throughput, ratio)
	}
}

func TestPredictAgreesAcrossProcessors(t *testing.T) {
	for _, npros := range []int{1, 5, 20} {
		p := paperBase()
		p.NPros = npros
		pred, err := Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		ratio := pred.Throughput / m.Throughput
		if ratio < 0.6 || ratio > 1.6 {
			t.Fatalf("npros=%d: analytic %v vs simulated %v", npros, pred.Throughput, m.Throughput)
		}
	}
}

func TestPredictCapturesFineGranularityPenalty(t *testing.T) {
	// The analytic model must reproduce the paper's headline ordering:
	// moderate granularity beats both extremes for the base workload.
	coarse := predictAt(t, 1)
	mid := predictAt(t, 50)
	fine := predictAt(t, 5000)
	if mid.Throughput <= coarse.Throughput {
		t.Fatalf("analytic: mid (%v) not above coarse (%v)", mid.Throughput, coarse.Throughput)
	}
	if mid.Throughput <= fine.Throughput {
		t.Fatalf("analytic: mid (%v) not above fine (%v)", mid.Throughput, fine.Throughput)
	}
	// Blocking must be near-certain at one lock and small at moderate.
	if coarse.BlockProbability < 0.9 {
		t.Fatalf("coarse block probability %v, want near 0.95", coarse.BlockProbability)
	}
	if mid.BlockProbability > 0.5 {
		t.Fatalf("moderate block probability %v unexpectedly high", mid.BlockProbability)
	}
}

func TestPredictAccessSkewShrinksConflictSpace(t *testing.T) {
	// The simulator draws conflicts over Params.ConflictSpace, which
	// AccessSkew shrinks (at ltot 100, skew 0.9 leaves 10 locks); its
	// throughput drops from about 0.196 to 0.168 at tmax 1000. The
	// prediction must read the same space: more blocking, less
	// throughput.
	uniform, err := Predict(paperBase())
	if err != nil {
		t.Fatal(err)
	}
	p := paperBase()
	p.AccessSkew = 0.9
	skewed, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.BlockProbability <= uniform.BlockProbability {
		t.Fatalf("skew block probability %v not above uniform %v", skewed.BlockProbability, uniform.BlockProbability)
	}
	if skewed.Throughput >= uniform.Throughput {
		t.Fatalf("skew throughput %v not below uniform %v", skewed.Throughput, uniform.Throughput)
	}
}

func predictAt(t *testing.T, ltot int) Prediction {
	t.Helper()
	p := paperBase()
	p.Ltot = ltot
	pred, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestPredictMixedClasses(t *testing.T) {
	p := paperBase()
	p.Classes = workload.SmallLargeMix(50, 500, 0.8)
	pred, err := Predict(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8*25.5 + 0.2*250.5
	if math.Abs(pred.MeanEntities-want) > 1e-9 {
		t.Fatalf("mix mean entities %v, want %v", pred.MeanEntities, want)
	}
	if pred.Throughput <= 0 {
		t.Fatal("no throughput for mix")
	}
}

func TestAnalyticOptimalGranularity(t *testing.T) {
	p := paperBase()
	grid := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
	best, curve, err := OptimalGranularity(p, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(grid) {
		t.Fatalf("curve length %d", len(curve))
	}
	// The analytic optimum must agree with the paper: interior, below
	// 200 locks.
	if best <= 1 || best > 200 {
		t.Fatalf("analytic optimum %d, want interior and below 200", best)
	}
	if _, _, err := OptimalGranularity(p, nil); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func BenchmarkPredict(b *testing.B) {
	p := paperBase()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(p); err != nil {
			b.Fatal(err)
		}
	}
}
