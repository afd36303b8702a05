package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// NewSet builds a Set from per-partition logs (1..MaxPartitions).
func NewSet(logs ...*Log) (*Set, error) {
	if len(logs) == 0 {
		return nil, errors.New("wal: set needs at least one log")
	}
	if len(logs) > MaxPartitions {
		return nil, fmt.Errorf("wal: set of %d logs exceeds %d (mask is 64-bit)", len(logs), MaxPartitions)
	}
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("wal: set log %d is nil", i)
		}
	}
	return &Set{logs: append([]*Log(nil), logs...)}, nil
}

// memSet builds an in-memory two-log (or n-log) Set plus access to the
// raw sink bytes for recovery tests.
func memSet(t *testing.T, n int) (*Set, []*countingSink) {
	t.Helper()
	sinks := make([]*countingSink, n)
	logs := make([]*Log, n)
	for i := range logs {
		sinks[i] = &countingSink{}
		logs[i] = NewLog(sinks[i])
	}
	s, err := NewSet(logs...)
	if err != nil {
		t.Fatal(err)
	}
	return s, sinks
}

func readersFor(sinks []*countingSink) []*Reader {
	rs := make([]*Reader, len(sinks))
	for i, s := range sinks {
		rs[i] = NewReader(bytes.NewReader(s.bytes()))
	}
	return rs
}

// commitTxn appends txn to the given partitions of s, transferring
// delta from the first listed partition's entity to the others.
func commitTxn(t *testing.T, s *Set, txn int64, parts []int, entity func(part int) int64) {
	t.Helper()
	mask := Mask(parts...)
	groups := make([]PartGroup, len(parts))
	for i, p := range parts {
		groups[i] = PartGroup{Part: p, Records: []Record{
			{Kind: KindBegin, Txn: txn},
			{Kind: KindUpdate, Txn: txn, Entity: entity(p), Before: 0, After: txn},
			{Kind: KindCommit, Txn: txn, Entity: mask},
		}}
	}
	if err := s.Commit(groups); err != nil {
		t.Fatal(err)
	}
}

func TestSetSinglePartitionCommitTouchesOneLog(t *testing.T) {
	s, sinks := memSet(t, 4)
	commitTxn(t, s, 1, []int{2}, func(int) int64 { return 20 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for k, sink := range sinks {
		_, syncs := sink.stats()
		if k == 2 && syncs == 0 {
			t.Fatal("touched log never synced")
		}
		if k != 2 && syncs != 0 {
			t.Fatalf("untouched log %d synced %d times", k, syncs)
		}
	}
}

func TestSetRecoverCrossPartition(t *testing.T) {
	s, sinks := memSet(t, 3)
	// Txn 1 spans logs 0 and 2; txn 2 lives in log 1 only.
	commitTxn(t, s, 1, []int{0, 2}, func(p int) int64 { return int64(p * 10) })
	commitTxn(t, s, 2, []int{1}, func(int) int64 { return 11 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	state := map[int64]int64{}
	stats, err := RecoverSet(readersFor(sinks), func(e, v int64) { state[e] = v })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 2 || stats.CrossPartial != 0 || stats.OrderViolations != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if state[0] != 1 || state[20] != 1 || state[11] != 2 {
		t.Fatalf("state %v", state)
	}
}

func TestSetRecoverDiscardsCrossPartialCommit(t *testing.T) {
	// A crash after log 0's flush but before log 2's leaves the commit
	// record in only part of the mask: the txn must be discarded whole.
	s, sinks := memSet(t, 3)
	mask := Mask(0, 2)
	if err := s.Commit([]PartGroup{{Part: 0, Records: []Record{
		{Kind: KindBegin, Txn: 7},
		{Kind: KindUpdate, Txn: 7, Entity: 1, After: 100},
		{Kind: KindCommit, Txn: 7, Entity: mask},
	}}}); err != nil {
		t.Fatal(err)
	}
	// Log 2 got only the begin+update — no commit (crash before it).
	if err := s.Commit([]PartGroup{{Part: 2, Records: []Record{
		{Kind: KindBegin, Txn: 7},
		{Kind: KindUpdate, Txn: 7, Entity: 2, After: 200},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	applied := 0
	stats, err := RecoverSet(readersFor(sinks), func(int64, int64) { applied++ })
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("%d updates applied from a cross-partial txn", applied)
	}
	if stats.CrossPartial != 1 || stats.Committed != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestSetRecoverFlagsOrderViolation(t *testing.T) {
	// Commit present in log 1 but missing from log 0 of mask {0,1}:
	// impossible under ascending-order appends, so recovery reports it.
	s, sinks := memSet(t, 2)
	mask := Mask(0, 1)
	if err := s.Commit([]PartGroup{
		{Part: 0, Records: []Record{
			{Kind: KindBegin, Txn: 9},
			{Kind: KindUpdate, Txn: 9, Entity: 0, After: 1},
		}},
		{Part: 1, Records: []Record{
			{Kind: KindBegin, Txn: 9},
			{Kind: KindUpdate, Txn: 9, Entity: 1, After: 1},
			{Kind: KindCommit, Txn: 9, Entity: mask},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	applied := 0
	stats, err := RecoverSet(readersFor(sinks), func(int64, int64) { applied++ })
	if err != nil {
		t.Fatal(err)
	}
	if stats.OrderViolations != 1 || stats.Committed != 0 || applied != 0 {
		t.Fatalf("stats %+v applied %d", stats, applied)
	}
}

func TestSetRecoverLegacyMaskZero(t *testing.T) {
	// Mask 0 means "this log only" — the single-log legacy encoding.
	s, sinks := memSet(t, 2)
	if err := s.Commit([]PartGroup{{Part: 1, Records: []Record{
		{Kind: KindBegin, Txn: 3},
		{Kind: KindUpdate, Txn: 3, Entity: 5, After: 50},
		{Kind: KindCommit, Txn: 3, Entity: 0},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	state := map[int64]int64{}
	stats, err := RecoverSet(readersFor(sinks), func(e, v int64) { state[e] = v })
	if err != nil || stats.Committed != 1 || state[5] != 50 {
		t.Fatalf("stats %+v state %v err %v", stats, state, err)
	}
}

func TestSetCommitRejectsUnorderedPartitions(t *testing.T) {
	s, _ := memSet(t, 3)
	defer s.Close()
	err := s.Commit([]PartGroup{
		{Part: 2, Records: []Record{{Kind: KindBegin, Txn: 1}}},
		{Part: 0, Records: []Record{{Kind: KindBegin, Txn: 1}}},
	})
	if err == nil {
		t.Fatal("descending partition order accepted")
	}
	if err := s.Commit([]PartGroup{{Part: 5, Records: []Record{{Kind: KindBegin, Txn: 1}}}}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

func TestSetRecoverConservesTransfersUnderTailCuts(t *testing.T) {
	// Balance-preserving transfers across two partitions; cut each
	// log's tail at every record boundary pair and check the recovered
	// total is always the initial total.
	s, sinks := memSet(t, 2)
	// Entities: even → part 0, odd → part 1, initial value 100 each.
	const n = 4
	for txn := int64(1); txn <= 6; txn++ {
		src := (txn * 2) % n   // even entity, part 0
		dst := (txn*2 + 1) % n // odd entity, part 1
		mask := Mask(0, 1)
		if err := s.Commit([]PartGroup{
			{Part: 0, Records: []Record{
				{Kind: KindBegin, Txn: txn},
				{Kind: KindUpdate, Txn: txn, Entity: src, Before: 100, After: 100 - txn},
				{Kind: KindCommit, Txn: txn, Entity: mask},
			}},
			{Part: 1, Records: []Record{
				{Kind: KindBegin, Txn: txn},
				{Kind: KindUpdate, Txn: txn, Entity: dst, Before: 100, After: 100 + txn},
				{Kind: KindCommit, Txn: txn, Entity: mask},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log0, log1 := sinks[0].bytes(), sinks[1].bytes()
	for c0 := 0; c0 <= len(log0); c0 += recordSize {
		for c1 := 0; c1 <= len(log1); c1 += recordSize {
			state := map[int64]int64{0: 100, 1: 100, 2: 100, 3: 100}
			readers := []*Reader{
				NewReader(bytes.NewReader(log0[:c0])),
				NewReader(bytes.NewReader(log1[:c1])),
			}
			if _, err := RecoverSet(readers, func(e, v int64) { state[e] = v }); err != nil {
				t.Fatalf("cut %d/%d: %v", c0, c1, err)
			}
			var total int64
			for _, v := range state {
				total += v
			}
			if total != 400 {
				t.Fatalf("cut %d/%d: total %d, state %v", c0, c1, total, state)
			}
		}
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Fatal("empty set accepted")
	}
	logs := make([]*Log, MaxPartitions+1)
	for i := range logs {
		logs[i] = NewLog(&bytes.Buffer{})
	}
	if _, err := NewSet(logs...); err == nil {
		t.Fatal("oversized set accepted")
	}
	for _, l := range logs {
		l.Close()
	}
	if _, err := NewSet(nil); err == nil {
		t.Fatal("nil log accepted")
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 1 || Mask(1) != 2 || Mask(0, 1, 5) != 1+2+32 {
		t.Fatal("mask arithmetic wrong")
	}
}

func TestSetCommitPropagatesPoison(t *testing.T) {
	sinks := []*countingSink{{failSyncAfter: 1}, {}}
	logs := []*Log{NewLog(sinks[0]), NewLog(sinks[1])}
	s, err := NewSet(logs...)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Commit([]PartGroup{{Part: 0, Records: []Record{{Kind: KindBegin, Txn: 1}}}})
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit on failing log: %v", err)
	}
	logs[1].Close()
}
