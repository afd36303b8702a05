package model

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"granulock/internal/partition"
	"granulock/internal/server"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

// TestTraceStreamPinned pins the JSON-lines trace of one seeded
// uniform-workload run byte for byte. A uniform workload has a single
// class, so the stream carries every event the model emits in the
// format trace.Writer has always written: a change to the event order,
// to a field, or to how a record is encoded moves the hash.
func TestTraceStreamPinned(t *testing.T) {
	p := base()
	p.Seed = 7
	p.TMax = 300
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	if _, err := RunContext(context.Background(), p, tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	const want = uint64(0x70d37be8258cd2a1)
	if got := h.Sum64(); got != want {
		t.Fatalf("trace hash %#x over %d bytes (%d events), want %#x", got, buf.Len(), tw.Events(), want)
	}
}

// TestMachinePathsPinned pins the JSON-lines trace and the metrics of
// one seeded run per processor path that the uniform base run of
// TestTraceStreamPinned does not take: all lock work on one server,
// shortest-job-first sub-transactions (a preempted job goes back to the
// head of its queue, where SJF may pass it over for a shorter one), lock
// work with no I/O demand (a zero-size disk job completes as a zero-delay
// event) and randomly partitioned mixed transactions. A change to how a
// processor visit is queued, preempted or completed moves the hash of
// the row that takes that path.
func TestMachinePathsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Params)
		want uint64
	}{
		{"dedicated-lock-processor", func(p *Params) { p.DedicatedLockProcessor = true }, 0x562537af659bfba},
		{"sjf", func(p *Params) { p.Discipline = server.SJF }, 0x538dbeea601000d8},
		{"zero-lock-io", func(p *Params) { p.LockIOTime = 0 }, 0xfd3deebb72e8a21c},
		{"random-partitioning-mix", func(p *Params) {
			p.Partitioning = partition.Random
			p.Classes = workload.SmallLargeMix(50, 500, 0.8)
		}, 0x2fa5967e67c9616e},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			p.Seed = 7
			p.TMax = 300
			tc.mut(&p)
			var buf bytes.Buffer
			tw := trace.NewWriter(&buf)
			m, err := RunContext(context.Background(), p, tw)
			if err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			// The metrics follow the trace: busy times and the engine's
			// step count move when a visit's zero-delay event does,
			// even where no lifecycle event changes time or order.
			fmt.Fprintf(&buf, "%+v\n", m)
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("trace+metrics hash %#x over %d bytes (%d events), want %#x", got, buf.Len(), tw.Events(), tc.want)
			}
		})
	}
}
