package model

import (
	"bytes"
	"context"
	"hash/fnv"
	"testing"

	"granulock/internal/trace"
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
