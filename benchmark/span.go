package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// Spans are recorded by the benchmark around its calls into each layer;
// nothing inside the program is instrumented (that is ROADMAP item 4).
// They are kept in memory, one preallocated log per client, and written
// out only after the traced window has closed.

// spanKind names a span. Spans hold a kind and not a string so that a
// log holds no pointers and the collector never scans it.
type spanKind uint8

const (
	spModelCell spanKind = iota
	spExecute
	spBegin
	spAcquire
	spWork
	spRW
	spCommit
	spEnd
	spLockOp
	spLockAcquire
	spLockHold
	spLockRelease
)

var spanNames = [...]string{
	spModelCell:   "model.cell",
	spExecute:     "engine.execute",
	spBegin:       "cc.begin",
	spAcquire:     "cc.acquire",
	spWork:        "cc.work",
	spRW:          "cc.rw",
	spCommit:      "cc.commit",
	spEnd:         "cc.end",
	spLockOp:      "locksrv.op",
	spLockAcquire: "locksrv.acquire",
	spLockHold:    "locksrv.hold",
	spLockRelease: "locksrv.release",
}

// span is one timed interval. Spans of one operation share op; parent
// is the index of the causing span in the same client's log, -1 for an
// operation's root span.
type span struct {
	op     int64
	start  int64 // ns since the window's base
	end    int64
	parent int32
	kind   spanKind
}

// spanLog is one client's spans.
type spanLog struct {
	rec   *recorder
	spans []span
}

// begin opens a span and returns its index. A nil log records nothing,
// so that one client loop serves the untraced and the traced window.
func (l *spanLog) begin(kind spanKind, parent int32, op int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, op: op, parent: parent, start: l.rec.now()})
	return int32(len(l.spans) - 1)
}

// finish closes span i.
func (l *spanLog) finish(i int32) {
	if l != nil {
		l.spans[i].end = l.rec.now()
	}
}

// selfTimes returns, for each span of one client's log, its duration
// minus the part of its interval that its child spans cover: children
// are clipped to the parent, and time covered by several overlapping
// children counts once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := s.start // everything before it is accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].start, covered), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTimes holds, per span kind, sorted durations in ns.
type spanTimes struct {
	total, self [len(spanNames)][]int64
}

// timesByKind pools, over all clients, the durations and the self times
// of the spans that ended inside [from, to).
func timesByKind(logs []*spanLog, from, to int64) *spanTimes {
	var t spanTimes
	for _, l := range logs {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			if s.end < from || s.end >= to {
				continue
			}
			t.total[s.kind] = append(t.total[s.kind], s.end-s.start)
			t.self[s.kind] = append(t.self[s.kind], self[i])
		}
	}
	for k := range t.total {
		slices.Sort(t.total[k])
		slices.Sort(t.self[k])
	}
	return &t
}

// us returns the q-quantile of kind's durations in microseconds.
func (t *spanTimes) us(kind spanKind, q float64) float64 {
	return float64(quantile(t.total[kind], q)) * usPerNs
}

// writeSpans writes the logs as JSON lines to dir/<workload>.jsonl.
func writeSpans(dir, workload string, logs []*spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Client int    `json:"client"`
		Span   int    `json:"span"`
		Name   string `json:"name"`
		Op     int64  `json:"op"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for c, l := range logs {
		for i, s := range l.spans {
			if err := enc.Encode(line{c, i, spanNames[s.kind], s.op, s.parent, s.start, s.end}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
