package locksrv

import (
	"fmt"

	"granulock/internal/lockmgr"
)

// Journal observes the served table's durable lock-state transitions: a
// grant journals the transaction's full request set before the grant is
// acknowledged, a release journals the transaction's end. A restarted
// server replays the journal to learn which grants were outstanding
// when it died (the sessions holding them are gone, so the locks are
// reported, not re-granted) and then starts a fresh epoch.
//
// Grant runs on the acquire path before the client sees success, so an
// implementation backed by a group-commit write-ahead log makes the
// grant durable exactly once per flush. A Grant error fails the acquire
// (the claim is withdrawn and the client gets ErrUnavailable) — an
// unjournalable grant must never be acknowledged. Release errors are
// swallowed: the table state has already changed, and a poisoned
// journal will surface on the next Grant anyway.
//
// Methods must be safe for concurrent use. Cluster-recovery grants
// (lease re-asserts after a takeover) bypass the acquire path and are
// not journaled.
type Journal interface {
	Grant(txn lockmgr.TxnID, reqs []lockmgr.Request) error
	Release(txn lockmgr.TxnID) error
}

// WithJournal installs j on the server: every acquire journals its
// grant before acknowledging, every release (explicit, idle-reap, or
// session-teardown force release) journals the transaction's end.
func WithJournal(j Journal) ServerOption {
	return func(s *Server) { s.journal = j }
}

// journalGrant runs the grant through the journal, undoing the table
// grant if the journal refuses. Called without s.mu held (journal
// writes block for a log flush) and before ownership is recorded, so
// failure leaves no trace of the transaction.
func (s *Server) journalGrant(txn lockmgr.TxnID, reqs []lockmgr.Request) (byte, string) {
	if s.journal == nil {
		return statusOK, ""
	}
	if err := s.journal.Grant(txn, reqs); err != nil {
		s.table.ReleaseAll(txn)
		return statusUnavailable, fmt.Sprintf("grant journal: %v", err)
	}
	return statusOK, ""
}

// journalRelease records a transaction's end, best-effort (see Journal).
func (s *Server) journalRelease(txn lockmgr.TxnID) {
	if s.journal == nil {
		return
	}
	s.journal.Release(txn)
}
