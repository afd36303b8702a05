// Package trace holds the simulation's event vocabulary: Event, the one
// record every lifecycle event is, and Observer, whose one method
// receives it. Writer streams events as JSON lines and Read parses them
// back, so traces can be stored and re-analyzed. It imports nothing
// internal, so any producer can speak the vocabulary.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind labels trace records.
type EventKind string

// The event kinds, one per point of a transaction's lifecycle: arrival
// in the pending queue, the start of its lock request's service, the
// request's grant or denial, and completion with its locks released.
const (
	EventArrive   EventKind = "arrive"
	EventRequest  EventKind = "request"
	EventGrant    EventKind = "grant"
	EventDeny     EventKind = "deny"
	EventComplete EventKind = "complete"
)

// Event is one lifecycle event at simulated time At. Fields are
// populated per kind: Entities and Locks for arrivals, Blocker for
// denials, Response and Class (an index into the model's
// Params.Classes) for completions.
//
// Blocker is a pointer, not a plain int with omitempty: transaction
// ids are arbitrary (an external producer may start at 0), and
// omitempty on an int silently drops a zero id, so a denial blocked by
// transaction 0 would round-trip as "no blocker". The pointer encodes
// presence explicitly; use BlockerID for convenient access.
type Event struct {
	Kind     EventKind `json:"kind"`
	At       float64   `json:"at"`
	Txn      int       `json:"txn"`
	Entities int       `json:"entities,omitempty"`
	Locks    int       `json:"locks,omitempty"`
	Blocker  *int      `json:"blocker,omitempty"`
	Response float64   `json:"response,omitempty"`
	Class    int       `json:"class,omitempty"`
}

// BlockerID returns the blocking transaction's id and whether the
// event carries one (only denials do).
func (e Event) BlockerID() (int, bool) {
	if e.Blocker == nil {
		return 0, false
	}
	return *e.Blocker, true
}

// Observer receives lifecycle events as they happen: a tracing and
// measurement hook. The model calls Observe on its one goroutine, in
// event order; an implementation must not block it.
type Observer interface {
	Observe(Event)
}

// Tee returns an Observer handing each event to every non-nil observer
// in order: nil when none is given, the observer itself when one is.
func Tee(observers ...Observer) Observer {
	var live tee
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// tee forwards to each member.
type tee []Observer

// Observe implements Observer.
func (t tee) Observe(e Event) {
	for _, o := range t {
		o.Observe(e)
	}
}

// Writer is an Observer that streams events as JSON lines. Errors
// are sticky: the first write error is kept and reported by Close, so
// the simulation hot path never has to check them. Writer serializes
// internally and may be shared (though the model calls it from one
// goroutine).
type Writer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
	n   int
}

// NewWriter returns a Writer streaming to w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Observe implements Observer: it writes one event.
func (t *Writer) Observe(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Events returns the number of events emitted so far.
func (t *Writer) Events() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close flushes the stream and reports the first error encountered.
func (t *Writer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Read parses a JSON-lines trace back into events.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		switch e.Kind {
		case EventArrive, EventRequest, EventGrant, EventDeny, EventComplete:
		default:
			return out, fmt.Errorf("trace: record %d has unknown kind %q", len(out), e.Kind)
		}
		out = append(out, e)
	}
}

// Summary condenses a trace: per-kind counts, the denial rate, and the
// mean response time of completions.
type Summary struct {
	Counts       map[EventKind]int
	DenialRate   float64
	MeanResponse float64
}

// Summarize computes a Summary.
func Summarize(events []Event) Summary {
	s := Summary{Counts: make(map[EventKind]int, 5)}
	respSum := 0.0
	for _, e := range events {
		s.Counts[e.Kind]++
		if e.Kind == EventComplete {
			respSum += e.Response
		}
	}
	requests := s.Counts[EventGrant] + s.Counts[EventDeny]
	if requests > 0 {
		s.DenialRate = float64(s.Counts[EventDeny]) / float64(requests)
	}
	if n := s.Counts[EventComplete]; n > 0 {
		s.MeanResponse = respSum / float64(n)
	}
	return s
}
