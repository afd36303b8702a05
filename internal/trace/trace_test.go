package trace

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"granulock/internal/model"
	"granulock/internal/partition"
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

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.TxnArrived(1, 100, 2, 0)
	w.LockRequested(1, 0)
	w.LockGranted(1, 0.1)
	w.LockDenied(2, 1, 0.2)
	w.TxnCompleted(1, 5.5, 5.5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != 5 {
		t.Fatalf("events %d", w.Events())
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("parsed %d events", len(events))
	}
	if events[0].Kind != EventArrive || events[0].Entities != 100 || events[0].Locks != 2 {
		t.Fatalf("arrive event %+v", events[0])
	}
	if b, ok := events[3].BlockerID(); events[3].Kind != EventDeny || !ok || b != 1 {
		t.Fatalf("deny event %+v", events[3])
	}
	if events[4].Response != 5.5 {
		t.Fatalf("complete event %+v", events[4])
	}
}

// TestZeroIDRoundTrip is the regression for the omitempty zero-value
// bug: transaction 0 as the denied party and as the blocker must both
// survive a write/read cycle (omitempty on a plain int would silently
// drop the zero blocker, turning "blocked by txn 0" into "no
// blocker").
func TestZeroIDRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.LockDenied(0, 0, 1.5)
	w.LockRequested(0, 1.0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"blocker":0`) {
		t.Fatalf("blocker 0 not serialized: %s", buf.String())
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := events[0].BlockerID()
	if !ok || b != 0 || events[0].Txn != 0 {
		t.Fatalf("deny by txn 0 did not round-trip: %+v", events[0])
	}
	if _, ok := events[1].BlockerID(); ok {
		t.Fatalf("request event grew a blocker: %+v", events[1])
	}
}

// TestAllKindsRoundTrip writes one event of every kind and checks each
// field survives the JSON cycle exactly.
func TestAllKindsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.TxnArrived(7, 120, 3, 0.25)
	w.LockRequested(7, 0.5)
	w.LockGranted(7, 0.75)
	w.LockDenied(8, 7, 1.0)
	w.TxnCompleted(7, 4.25, 4.5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	blocker := 7
	want := []Event{
		{Kind: EventArrive, At: 0.25, Txn: 7, Entities: 120, Locks: 3},
		{Kind: EventRequest, At: 0.5, Txn: 7},
		{Kind: EventGrant, At: 0.75, Txn: 7},
		{Kind: EventDeny, At: 1.0, Txn: 8, Blocker: &blocker},
		{Kind: EventComplete, At: 4.5, Txn: 7, Response: 4.25},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		wv := want[i]
		if e.Kind != wv.Kind || e.At != wv.At || e.Txn != wv.Txn ||
			e.Entities != wv.Entities || e.Locks != wv.Locks || e.Response != wv.Response {
			t.Fatalf("event %d: got %+v want %+v", i, e, wv)
		}
		gb, gok := e.BlockerID()
		wb, wok := wv.BlockerID()
		if gok != wok || gb != wb {
			t.Fatalf("event %d blocker: got (%d,%v) want (%d,%v)", i, gb, gok, wb, wok)
		}
	}
}

func TestReadRejectsUnknownKind(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"kind":"martian","at":1,"txn":1}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadEmpty(t *testing.T) {
	events, err := Read(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Fatalf("empty trace: %v %v", events, err)
	}
}

type failingWriter struct{ fails bool }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.fails {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	// A small bufio buffer forces the flush path; errors must surface
	// at Close without panicking the hot path.
	sink := &failingWriter{fails: true}
	w := NewWriter(sink)
	for i := 0; i < 10000; i++ {
		w.LockGranted(i, float64(i))
	}
	if err := w.Close(); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestTraceFullSimulation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m, err := model.RunContext(context.Background(), modelParams(), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(events)
	if s.Counts[EventComplete] != m.TotCom {
		t.Fatalf("trace completions %d != metrics %d", s.Counts[EventComplete], m.TotCom)
	}
	if s.Counts[EventGrant]+s.Counts[EventDeny] != m.LockRequests {
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

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.DenialRate != 0 || s.MeanResponse != 0 || len(s.Counts) != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}
