package locksrv

import "testing"

// TestServiceInheritsFastPath pins the end-to-end wiring of the lock
// table under the service: ordinary single-granule wire traffic is
// granted once per claim and leaves no holder behind. The name is
// historical: it once checked that the service's table served such
// traffic through a lock-free fast path, which the table no longer has.
func TestServiceInheritsFastPath(t *testing.T) {
	addr, srv := startServer(t)
	c := dial(t, addr)

	const rounds = 10
	for txn := int64(1); txn <= rounds; txn++ {
		if err := c.AcquireAll(txn, xreq(7)); err != nil {
			t.Fatalf("txn %d acquire: %v", txn, err)
		}
		if err := c.ReleaseAll(txn); err != nil {
			t.Fatalf("txn %d release: %v", txn, err)
		}
	}

	if got := srv.table.Stats().Grants; got != rounds {
		t.Fatalf("Stats().Grants = %d, want %d", got, rounds)
	}
	if n := srv.table.HoldersCount(); n != 0 {
		t.Fatalf("%d holders leaked", n)
	}
}
