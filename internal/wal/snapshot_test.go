package wal

import (
	"bytes"
	"errors"
	"testing"
)

func buildSnapshot(n int) *Snapshot {
	s := &Snapshot{Seqs: []int64{10, 0, 7}}
	for i := 0; i < n; i++ {
		s.Entries = append(s.Entries, SnapshotEntry{Entity: int64(i), Value: int64(100 - i)})
	}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, snapChunk - 1, snapChunk, snapChunk + 1, 3*snapChunk + 17} {
		want := buildSnapshot(n)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got.Seqs) != len(want.Seqs) || len(got.Entries) != len(want.Entries) {
			t.Fatalf("n=%d: shape mismatch", n)
		}
		for i := range want.Seqs {
			if got.Seqs[i] != want.Seqs[i] {
				t.Fatalf("n=%d: seq %d", n, i)
			}
		}
		for i := range want.Entries {
			if got.Entries[i] != want.Entries[i] {
				t.Fatalf("n=%d: entry %d", n, i)
			}
		}
	}
}

func TestSnapshotEveryTruncationDetected(t *testing.T) {
	// A snapshot cut short at ANY byte offset must fail ReadSnapshot:
	// that is what makes a half-written snapshot unloadable.
	want := buildSnapshot(snapChunk + 5)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every offset on a small snapshot would be slow on this big one;
	// check every offset in the header and chunk boundaries, and a
	// stride through the body.
	check := func(cut int) {
		t.Helper()
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d of %d: err %v, want ErrCorrupt", cut, len(full), err)
		}
	}
	for cut := 0; cut < 64 && cut < len(full); cut++ {
		check(cut)
	}
	for cut := 64; cut < len(full); cut += 509 {
		check(cut)
	}
	check(len(full) - 1)
}

func TestSnapshotBitFlipDetected(t *testing.T) {
	want := buildSnapshot(100)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, off := range []int{0, 9, 15, 25, 40, 60, len(full) - 3} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		if _, err := ReadSnapshot(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err %v, want ErrCorrupt", off, err)
		}
	}
}

func TestSnapshotTrailingGarbageDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, buildSnapshot(3)); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xAA)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing byte accepted")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot decoder: it
// must never panic, and anything it accepts must re-encode to an image
// that decodes identically (mirrors FuzzReaderNext for the log codec).
// Seeds: testdata/fuzz/FuzzReadSnapshot.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // corrupt: fine
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if len(again.Seqs) != len(s.Seqs) || len(again.Entries) != len(s.Entries) {
			t.Fatal("snapshot round trip changed shape")
		}
	})
}
