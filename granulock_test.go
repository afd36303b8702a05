package granulock_test

import (
	"strings"
	"testing"

	"granulock"
)

func TestQuickstartFlow(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	p.NPros = 5
	p.Ltot = 50
	m, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotCom <= 0 || m.Throughput <= 0 {
		t.Fatalf("no progress: %+v", m)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	p.Classes = granulock.SmallLargeMix(50, 500, 0.8)
	if _, err := granulock.Run(p); err != nil {
		t.Fatal(err)
	}
	p.Classes = granulock.UniformWorkload(100)
	if _, err := granulock.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementAndPartitioningReexports(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	p.Placement = granulock.PlacementWorst
	p.Partitioning = granulock.RandomPart
	if _, err := granulock.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestFigureIDsStable(t *testing.T) {
	ids := granulock.FigureIDs()
	if len(ids) != 11 {
		t.Fatalf("%d ids", len(ids))
	}
}

func TestRunFigureAndRender(t *testing.T) {
	fig, err := granulock.RunFigure("fig7", granulock.Options{TMax: 150})
	if err != nil {
		t.Fatal(err)
	}
	text := granulock.RenderText(fig)
	if !strings.Contains(text, "Figure 7") {
		t.Fatal("render missing title")
	}
	csv := granulock.RenderCSV(fig)
	if !strings.HasPrefix(csv, "figure,panel,series,x,y") {
		t.Fatal("csv header missing")
	}
}

func TestTable1Facade(t *testing.T) {
	if !strings.Contains(granulock.Table1(), "dbsize") {
		t.Fatal("Table 1 missing content")
	}
}

func TestRunReplicationsFacade(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 150
	var r granulock.Replicated
	if _, err := granulock.Run(p, granulock.WithReplications(3), granulock.WithReplicatedSummary(&r)); err != nil {
		t.Fatal(err)
	}
	if r.Throughput.N != 3 {
		t.Fatalf("summary %+v", r.Throughput)
	}
}

func TestOptimalGranularityFacade(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 300
	best, curve, err := granulock.OptimalGranularity(p)
	if err != nil {
		t.Fatal(err)
	}
	if best < 1 || len(curve) == 0 {
		t.Fatalf("best=%d curve=%d", best, len(curve))
	}
}
