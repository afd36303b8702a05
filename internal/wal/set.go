package wal

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// MaxPartitions bounds a Set: commit records carry the partition set as
// a bitmask in their Entity field, which has 64 bits.
const MaxPartitions = 64

// Set is a group of per-partition Logs. The engine keys log k to node
// index k so a commit touching only node k syncs only log k; a
// cross-partition commit appends to every touched log in ascending
// partition order, with the commit record in each carrying the full
// partition mask. RecoverSet verifies the rule: a transaction is
// committed iff its commit record is present in every log of its mask.
type Set struct {
	logs []*Log
}

// Len returns the number of partition logs.
func (s *Set) Len() int { return len(s.logs) }

// Log returns partition k's log.
func (s *Set) Log(k int) *Log { return s.logs[k] }

// Seqs returns every log's durable sequence number, indexed by
// partition.
func (s *Set) Seqs() []int64 {
	out := make([]int64, len(s.logs))
	for i, l := range s.logs {
		out[i] = l.Seq()
	}
	return out
}

// Close closes every log, returning the first error.
func (s *Set) Close() error {
	var first error
	for _, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Mask returns the partition bitmask for parts.
func Mask(parts ...int) int64 {
	var m int64
	for _, p := range parts {
		m |= 1 << uint(p)
	}
	return m
}

// PartGroup is one partition's share of a transaction's records.
type PartGroup struct {
	// Part is the partition (log) index.
	Part int
	// Records is the group to append to that log; the caller sets each
	// commit record's Entity to the transaction's full partition mask.
	Records []Record
}

// Commit appends a transaction's per-partition groups and waits for
// durability. Groups must arrive in strictly ascending partition order
// — the cross-partition ordering rule recovery relies on: if the commit
// record is durable in log k, it is durable in every lower log of the
// mask, so a crash between logs leaves a prefix that recovery detects
// (and discards) rather than silently half-applies.
//
// Commit waits for each log in turn, so a multi-partition commit pays
// one group-commit latency per touched log; single-partition commits
// (the common case under the engine's node-keyed placement) pay one.
func (s *Set) Commit(groups []PartGroup) error {
	last := -1
	for _, g := range groups {
		if g.Part <= last {
			return fmt.Errorf("wal: set commit partitions out of order (%d after %d)", g.Part, last)
		}
		if g.Part >= len(s.logs) {
			return fmt.Errorf("wal: set commit partition %d out of range [0,%d)", g.Part, len(s.logs))
		}
		last = g.Part
	}
	for _, g := range groups {
		if err := s.logs[g.Part].Commit(g.Records); err != nil {
			return err
		}
	}
	return nil
}

// SetRecoverStats summarizes a multi-log recovery pass.
type SetRecoverStats struct {
	// Logs holds each partition log's scan stats.
	Logs []RecoverStats
	// Committed counts distinct transactions redone.
	Committed int
	// Aborted counts distinct transactions with an abort record.
	Aborted int
	// Incomplete counts distinct transactions with updates but no
	// outcome anywhere.
	Incomplete int
	// CrossPartial counts transactions whose commit record reached some
	// but not all logs of their mask — in flight across the ordering
	// rule at the crash; discarded.
	CrossPartial int
	// OrderViolations counts transactions whose surviving commit
	// records contradict the ascending-order rule: a commit durable in
	// log k but missing from a *lower* log in its mask. A crash can
	// only truncate the suffix of the ascending append sequence, so
	// this indicates log damage or a writer bug; the transaction is
	// discarded, like CrossPartial.
	OrderViolations int
	// MaxTxn is the highest transaction ID on any scanned record,
	// whatever its outcome (0 when the logs are empty). A writer
	// appending to recovered logs must number new transactions above
	// it: transaction IDs key recovery's evidence map, so an ID reused
	// while the old transaction's records survive merges two unrelated
	// transactions into one corrupt classification.
	MaxTxn int64
}

// setTxn accumulates one transaction's evidence across logs.
type setTxn struct {
	mask       int64 // union of commit-record masks
	commits    int64 // bitmask of logs where a commit record appeared
	hasUpdates bool
	aborted    bool
}

// logUpdate is one update record tagged with its transaction, kept in
// log order for the redo pass.
type logUpdate struct {
	txn    int64
	entity int64
	after  int64
}

// RecoverSet scans one Reader per partition log, decides each
// transaction's outcome under the cross-partition ordering rule, and
// redoes committed after-images through apply. A transaction is
// committed iff a commit record is present in every log of its mask (a
// mask of 0 means "only the log the record was read from" — what a
// plain single Log writes).
//
// Redo replays each log's updates in that log's order, which is correct
// under partitioned placement: every entity is logged in exactly one
// log, and locking serialized conflicting transactions, so per-entity
// update order equals that entity's log order.
func RecoverSet(readers []*Reader, apply func(entity int64, value int64)) (SetRecoverStats, error) {
	stats := SetRecoverStats{Logs: make([]RecoverStats, len(readers))}
	txns := make(map[int64]*setTxn)
	updates := make([][]logUpdate, len(readers))

	for k, r := range readers {
		ls := &stats.Logs[k]
		for {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, ErrCorrupt) {
				ls.Torn = true
				break
			}
			if err != nil {
				return stats, err
			}
			ls.Records++
			if rec.Txn > ls.MaxTxn {
				ls.MaxTxn = rec.Txn
			}
			if rec.Txn > stats.MaxTxn {
				stats.MaxTxn = rec.Txn
			}
			t := txns[rec.Txn]
			if t == nil {
				t = &setTxn{}
				txns[rec.Txn] = t
			}
			switch rec.Kind {
			case KindUpdate:
				updates[k] = append(updates[k], logUpdate{txn: rec.Txn, entity: rec.Entity, after: rec.After})
				t.hasUpdates = true
			case KindCommit:
				ls.Committed++
				t.commits |= 1 << uint(k)
				if rec.Entity != 0 {
					t.mask |= rec.Entity
				} else {
					t.mask |= 1 << uint(k)
				}
			case KindAbort:
				ls.Aborted++
				t.aborted = true
			}
		}
	}

	committed := make(map[int64]bool)
	for id, t := range txns {
		switch {
		case t.aborted:
			stats.Aborted++
		case t.commits == 0:
			if t.hasUpdates {
				stats.Incomplete++
			}
		case t.commits&t.mask != t.mask:
			// Commit reached some logs of the mask but not all. Under
			// ascending-order appends the missing logs must be a suffix
			// of the mask; a commit present in a log *above* a missing
			// one is a violation.
			missing := t.mask &^ t.commits
			present := t.commits & t.mask
			if present != 0 && bits.Len64(uint64(present))-1 > bits.TrailingZeros64(uint64(missing)) {
				stats.OrderViolations++
			} else {
				stats.CrossPartial++
			}
		default:
			committed[id] = true
			stats.Committed++
		}
	}

	for k := range updates {
		for _, u := range updates[k] {
			if committed[u.txn] {
				apply(u.entity, u.after)
			}
		}
	}
	return stats, nil
}
