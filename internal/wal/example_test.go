package wal_test

import (
	"bytes"
	"fmt"

	"granulock/internal/wal"
)

// Example writes a transfer transaction to the log, "crashes" before a
// second one commits, and recovers: the committed transfer survives,
// the in-flight one vanishes.
func Example() {
	var sink bytes.Buffer
	log := wal.NewLog(&sink)

	// Txn 1 commits a transfer: entity 0 loses 25, entity 1 gains 25.
	_ = log.Commit([]wal.Record{
		{Kind: wal.KindBegin, Txn: 1},
		{Kind: wal.KindUpdate, Txn: 1, Entity: 0, Before: 100, After: 75},
		{Kind: wal.KindUpdate, Txn: 1, Entity: 1, Before: 100, After: 125},
		{Kind: wal.KindCommit, Txn: 1},
	})
	// Txn 2 crashes mid-flight: update logged, commit never written.
	_ = log.Commit([]wal.Record{
		{Kind: wal.KindBegin, Txn: 2},
		{Kind: wal.KindUpdate, Txn: 2, Entity: 0, Before: 75, After: 0},
	})
	_ = log.Close()

	state := map[int64]int64{0: 100, 1: 100}
	stats, _ := wal.RecoverSet([]*wal.Reader{wal.NewReader(&sink)}, func(e, v int64) { state[e] = v })
	fmt.Printf("committed=%d incomplete=%d\n", stats.Committed, stats.Incomplete)
	fmt.Printf("balances: %d and %d (total %d)\n", state[0], state[1], state[0]+state[1])
	// Output:
	// committed=1 incomplete=1
	// balances: 75 and 125 (total 200)
}
