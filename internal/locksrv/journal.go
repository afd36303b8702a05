package locksrv

import (
	"fmt"
	"slices"

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

// journalGrant makes acquire a's grant of reqs durable before anything
// acknowledges it, on a goroutine of its own — a journal write blocks
// for a log flush, a wait no reader and no releasing goroutine may take
// on — and then records the grant and answers it (settle). A grant the
// journal refuses is withdrawn from the table and answered unavailable;
// ownership was never recorded, so it leaves no trace of the
// transaction.
func (s *Server) journalGrant(a call, reqs []lockmgr.Request) {
	own := slices.Clone(reqs)
	go func() {
		if err := s.journal.Grant(a.txn, own); err != nil {
			s.table.ReleaseAll(a.txn)
			s.answer(a, statusUnavailable, fmt.Sprintf("grant journal: %v", err))
			return
		}
		st, msg := s.settle(a, nil)
		s.answer(a, st, msg)
	}()
}

// journalRelease records a transaction's end, best-effort (see Journal).
func (s *Server) journalRelease(txn lockmgr.TxnID) {
	if s.journal == nil {
		return
	}
	s.journal.Release(txn)
}
