package trace_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"granulock/internal/model"
	"granulock/internal/partition"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

func modelParams() model.Params {
	return model.Params{
		DBSize: 5000, Ltot: 100, NTrans: 10, MaxTransize: 500,
		CPUTime: 0.05, IOTime: 0.2, LockCPUTime: 0.01, LockIOTime: 0.2,
		NPros: 10, TMax: 300,
		Partitioning: partition.Horizontal, Placement: workload.PlacementBest, Seed: 1,
	}
}

func TestTraceFullSimulation(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	m, err := model.RunContext(context.Background(), modelParams(), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(events)
	if s.Counts[trace.EventComplete] != m.TotCom {
		t.Fatalf("trace completions %d != metrics %d", s.Counts[trace.EventComplete], m.TotCom)
	}
	if s.Counts[trace.EventGrant]+s.Counts[trace.EventDeny] != m.LockRequests {
		t.Fatal("trace requests disagree with metrics")
	}
	if math.Abs(s.DenialRate-m.DenialRate) > 1e-12 {
		t.Fatalf("trace denial rate %v != metrics %v", s.DenialRate, m.DenialRate)
	}
	if math.Abs(s.MeanResponse-m.MeanResponse) > 1e-9 {
		t.Fatalf("trace mean response %v != metrics %v", s.MeanResponse, m.MeanResponse)
	}
	// Events must be in non-decreasing time order.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

// TestTraceCarriesClass rebuilds a mixed workload's per-class
// completion counts and response sums from its trace alone, and checks
// them against a ClassCollector watching a run of the same seed.
func TestTraceCarriesClass(t *testing.T) {
	p := modelParams()
	p.Classes = workload.SmallLargeMix(50, 500, 0.8)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := model.RunContext(context.Background(), p, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var cc model.ClassCollector
	if _, err := model.RunContext(context.Background(), p, &cc); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	var sums []float64
	for _, e := range events {
		if e.Kind != trace.EventComplete {
			continue
		}
		for len(counts) <= e.Class {
			counts = append(counts, 0)
			sums = append(sums, 0)
		}
		counts[e.Class]++
		sums[e.Class] += e.Response
	}
	if len(cc.Completions) != 2 {
		t.Fatalf("collector saw classes %v, want 2", cc.Completions)
	}
	if !reflect.DeepEqual(counts, cc.Completions) || !reflect.DeepEqual(sums, cc.RespSums) {
		t.Fatalf("trace per-class counts %v sums %v, collector %v %v", counts, sums, cc.Completions, cc.RespSums)
	}
}
