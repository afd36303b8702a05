package wal

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// logBytes returns the headerless record stream a Log over a plain
// io.Writer produces for the given commit groups.
func logBytes(t testing.TB, groups ...[]Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewLog(&buf)
	for _, g := range groups {
		if err := l.Commit(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recoverBytes runs the one recovery classifier over a single log image.
func recoverBytes(log []byte, apply func(e, v int64)) (SetRecoverStats, error) {
	return RecoverSet([]*Reader{NewReader(bytes.NewReader(log))}, apply)
}

func TestRoundTripSingleRecord(t *testing.T) {
	want := Record{Kind: KindUpdate, Txn: 42, Entity: 7, Before: 100, After: 75}
	r := NewReader(bytes.NewReader(logBytes(t, []Record{want})))
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, txn, entity, before, after int64) bool {
		rec := Record{
			Kind:   Kind(kindRaw%4) + KindBegin,
			Txn:    txn,
			Entity: entity,
			Before: before,
			After:  after,
		}
		got, err := NewReader(bytes.NewReader(logBytes(t, []Record{rec}))).Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitGroupContiguous(t *testing.T) {
	group := []Record{
		{Kind: KindBegin, Txn: 1},
		{Kind: KindUpdate, Txn: 1, Entity: 3, Before: 0, After: 5},
		{Kind: KindCommit, Txn: 1},
	}
	r := NewReader(bytes.NewReader(logBytes(t, group)))
	for i, want := range group {
		got, err := r.Next()
		if err != nil || got != want {
			t.Fatalf("record %d: %+v, %v", i, got, err)
		}
	}
}

func TestTornTailDetected(t *testing.T) {
	log := logBytes(t, []Record{{Kind: KindBegin, Txn: 1}, {Kind: KindCommit, Txn: 1}})
	// Tear the second record in half.
	r := NewReader(bytes.NewReader(log[:recordSize+recordSize/2]))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should read cleanly: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn tail error = %v, want ErrCorrupt", err)
	}
}

func TestBitFlipDetected(t *testing.T) {
	data := logBytes(t, []Record{{Kind: KindUpdate, Txn: 9, Entity: 1, Before: 2, After: 3}})
	data[5] ^= 0x40 // flip a bit in the txn field
	if _, err := NewReader(bytes.NewReader(data)).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("bit flip not detected")
	}
}

func TestBadKindDetected(t *testing.T) {
	// A record with a valid checksum but invalid kind must be rejected
	// (defense against logic bugs, not just torn writes).
	var buf [recordSize]byte
	r := Record{Kind: Kind(99), Txn: 1}
	r.marshal(buf[:])
	if _, err := unmarshal(buf[:]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("invalid kind accepted")
	}
}

// buildLog writes a canned multi-transaction log and returns its bytes.
func buildLog(t testing.TB) []byte {
	return logBytes(t,
		// Txn 1 commits: entity 0: 10 -> 5; entity 1: 10 -> 15.
		[]Record{
			{Kind: KindBegin, Txn: 1},
			{Kind: KindUpdate, Txn: 1, Entity: 0, Before: 10, After: 5},
			{Kind: KindUpdate, Txn: 1, Entity: 1, Before: 10, After: 15},
			{Kind: KindCommit, Txn: 1},
		},
		// Txn 2 aborts: its update must be ignored.
		[]Record{
			{Kind: KindBegin, Txn: 2},
			{Kind: KindUpdate, Txn: 2, Entity: 0, Before: 5, After: 9999},
			{Kind: KindAbort, Txn: 2},
		},
		// Txn 3 commits over txn 1's result: entity 1: 15 -> 20.
		[]Record{
			{Kind: KindBegin, Txn: 3},
			{Kind: KindUpdate, Txn: 3, Entity: 1, Before: 15, After: 20},
			{Kind: KindCommit, Txn: 3},
		},
		// Txn 4 never commits (in flight at the crash).
		[]Record{
			{Kind: KindBegin, Txn: 4},
			{Kind: KindUpdate, Txn: 4, Entity: 2, Before: 10, After: 0},
		},
	)
}

func TestRecoverRedoesCommittedOnly(t *testing.T) {
	state := map[int64]int64{0: 10, 1: 10, 2: 10}
	stats, err := recoverBytes(buildLog(t), func(e, v int64) { state[e] = v })
	if err != nil {
		t.Fatal(err)
	}
	if state[0] != 5 || state[1] != 20 || state[2] != 10 {
		t.Fatalf("recovered state %v, want {0:5 1:20 2:10}", state)
	}
	if stats.Committed != 2 || stats.Aborted != 1 || stats.Incomplete != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if l := stats.Logs[0]; l.Torn || l.Records != 12 || l.Committed != 2 || l.Aborted != 1 || l.MaxTxn != 4 {
		t.Fatalf("per-log stats %+v", l)
	}
}

func TestRecoverTornTail(t *testing.T) {
	log := buildLog(t)
	// Tear inside txn 3's commit record (the 10th record, index 9):
	// txn 3's updates must then be discarded.
	cut := recordSize*9 + 3
	state := map[int64]int64{0: 10, 1: 10, 2: 10}
	stats, err := recoverBytes(log[:cut], func(e, v int64) { state[e] = v })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Logs[0].Torn {
		t.Fatal("torn tail not reported")
	}
	if state[0] != 5 || state[1] != 15 || state[2] != 10 {
		t.Fatalf("recovered state %v, want only txn 1's effects", state)
	}
	if stats.Committed != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRecoverEveryPrefixIsConsistent(t *testing.T) {
	// Crash anywhere: recovery must apply a prefix of commits, never a
	// partial transaction. Txn effects here are transfers, so the total
	// is invariant under any committed prefix.
	log := buildLog(t)
	for cut := 0; cut <= len(log); cut++ {
		state := map[int64]int64{0: 10, 1: 10, 2: 10}
		if _, err := recoverBytes(log[:cut], func(e, v int64) { state[e] = v }); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Valid post-states: {} (nothing), txn1 only, txn1+txn3.
		ok := (state[0] == 10 && state[1] == 10) ||
			(state[0] == 5 && state[1] == 15) ||
			(state[0] == 5 && state[1] == 20)
		if !ok || state[2] != 10 {
			t.Fatalf("cut %d: inconsistent recovered state %v", cut, state)
		}
	}
}

func TestRecoverEmptyLog(t *testing.T) {
	stats, err := recoverBytes(nil, func(int64, int64) {
		t.Fatal("apply called on empty log")
	})
	if err != nil || stats.Logs[0].Records != 0 {
		t.Fatalf("empty log: %+v, %v", stats, err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{KindBegin: "begin", KindUpdate: "update", KindCommit: "commit", KindAbort: "abort"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d String %q", k, k.String())
		}
	}
	if Kind(0).String() == "" {
		t.Fatal("unknown kind String empty")
	}
}

func BenchmarkCommit(b *testing.B) {
	l := NewLog(io.Discard)
	defer l.Close()
	rec := []Record{{Kind: KindUpdate, Txn: 1, Entity: 2, Before: 3, After: 4}}
	for i := 0; i < b.N; i++ {
		if err := l.Commit(rec); err != nil {
			b.Fatal(err)
		}
	}
}
