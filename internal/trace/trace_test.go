package trace

import (
	"bytes"
	"strings"
	"testing"
)

// ptr returns a pointer to a copy of v, for Event.Blocker.
func ptr(v int) *int { return &v }

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Observe(Event{Kind: EventArrive, At: 0, Txn: 1, Entities: 100, Locks: 2})
	w.Observe(Event{Kind: EventRequest, At: 0, Txn: 1})
	w.Observe(Event{Kind: EventGrant, At: 0.1, Txn: 1})
	w.Observe(Event{Kind: EventDeny, At: 0.2, Txn: 2, Blocker: ptr(1)})
	w.Observe(Event{Kind: EventComplete, At: 5.5, Txn: 1, Response: 5.5})
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
	w.Observe(Event{Kind: EventDeny, At: 1.5, Txn: 0, Blocker: ptr(0)})
	w.Observe(Event{Kind: EventRequest, At: 1.0, Txn: 0})
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
	w.Observe(Event{Kind: EventArrive, At: 0.25, Txn: 7, Entities: 120, Locks: 3})
	w.Observe(Event{Kind: EventRequest, At: 0.5, Txn: 7})
	w.Observe(Event{Kind: EventGrant, At: 0.75, Txn: 7})
	w.Observe(Event{Kind: EventDeny, At: 1.0, Txn: 8, Blocker: ptr(7)})
	w.Observe(Event{Kind: EventComplete, At: 4.5, Txn: 7, Response: 4.25})
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

// kinds records the kind of each event it observes.
type kinds []EventKind

func (k *kinds) Observe(e Event) { *k = append(*k, e.Kind) }

// TestTee checks Tee drops nil observers, returns nil for none and the
// observer itself for one, and hands each event to every member in
// order.
func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no observers is not nil")
	}
	var a, b kinds
	if Tee(nil, &a) != Observer(&a) {
		t.Fatal("Tee of one observer is not that observer")
	}
	o := Tee(&a, nil, &b)
	o.Observe(Event{Kind: EventArrive})
	o.Observe(Event{Kind: EventComplete})
	want := kinds{EventArrive, EventComplete}
	for _, got := range []kinds{a, b} {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("member saw %v, want %v", got, want)
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
		w.Observe(Event{Kind: EventGrant, At: float64(i), Txn: i})
	}
	if err := w.Close(); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.DenialRate != 0 || s.MeanResponse != 0 || len(s.Counts) != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}
