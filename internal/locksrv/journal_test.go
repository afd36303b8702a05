package locksrv

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"granulock/internal/lockmgr"
)

// memJournal records grant/release calls; failGrants makes Grant fail.
type memJournal struct {
	mu         sync.Mutex
	grants     map[lockmgr.TxnID][]lockmgr.Request
	releases   []lockmgr.TxnID
	failGrants bool
}

func newMemJournal() *memJournal {
	return &memJournal{grants: map[lockmgr.TxnID][]lockmgr.Request{}}
}

func (j *memJournal) Grant(txn lockmgr.TxnID, reqs []lockmgr.Request) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failGrants {
		return errors.New("journal poisoned")
	}
	j.grants[txn] = append([]lockmgr.Request(nil), reqs...)
	return nil
}

func (j *memJournal) Release(txn lockmgr.TxnID) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.releases = append(j.releases, txn)
	return nil
}

// startJournaledServer launches a server with j installed.
func startJournaledServer(t *testing.T, j Journal) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, nil, WithJournal(j))
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

func TestJournalSeesGrantAndRelease(t *testing.T) {
	j := newMemJournal()
	addr, _ := startJournaledServer(t, j)
	c := dial(t, addr)
	if err := c.AcquireAll(7, xreq(3, 4)); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	reqs := j.grants[7]
	j.mu.Unlock()
	if len(reqs) != 2 || reqs[0].Granule != 3 || reqs[1].Granule != 4 {
		t.Fatalf("journaled grant %v", reqs)
	}
	if err := c.ReleaseAll(7); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	rel := append([]lockmgr.TxnID(nil), j.releases...)
	j.mu.Unlock()
	if len(rel) != 1 || rel[0] != 7 {
		t.Fatalf("journaled releases %v", rel)
	}
}

func TestJournalGrantFailureWithdrawsClaim(t *testing.T) {
	// An unjournalable grant must never be acknowledged — and must not
	// leave the locks held.
	j := newMemJournal()
	j.failGrants = true
	addr, srv := startJournaledServer(t, j)
	c := dial(t, addr)
	err := c.AcquireAll(1, xreq(5))
	if err == nil {
		t.Fatal("acquire acknowledged despite journal failure")
	}
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "grant journal") {
		t.Fatalf("error %v, want ErrUnavailable with journal detail", err)
	}
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d holders after withdrawn grant", n)
	}
	// The claim was withdrawn, so a healthy journal grants it again.
	j.mu.Lock()
	j.failGrants = false
	j.mu.Unlock()
	if err := c.AcquireAll(1, xreq(5)); err != nil {
		t.Fatalf("retry after journal recovery: %v", err)
	}
}

func TestJournalSeesForceRelease(t *testing.T) {
	// A session dying with locks held force-releases them; the journal
	// must see the release so a restart does not report them stranded.
	j := newMemJournal()
	addr, srv := startJournaledServer(t, j)
	c := dial(t, addr)
	if err := c.AcquireAll(9, xreq(1)); err != nil {
		t.Fatal(err)
	}
	c.Close() // teardown force-releases txn 9
	deadline := 200
	for ; deadline > 0; deadline-- {
		j.mu.Lock()
		n := len(j.releases)
		j.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatal("force release never journaled")
	}
	j.mu.Lock()
	rel := j.releases[0]
	j.mu.Unlock()
	if rel != 9 {
		t.Fatalf("journaled release %d, want 9", rel)
	}
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d holders after teardown", n)
	}
}

// Failovers returns how many node failovers the client has run.
func (cc *ClusterClient) Failovers() int64 { return cc.failovers.Load() }

// TestClusterClientSurfacesUnavailable: a node that withdraws a claim
// because its journal failed is alive and answered. The cluster client
// must hand the caller ErrUnavailable to retry, not treat the reply as
// a dead node and fail the partition over.
func TestClusterClientSurfacesUnavailable(t *testing.T) {
	j := newMemJournal()
	j.failGrants = true
	addrs, servers := startCluster(t, 2, nil, WithJournal(j))
	cc, err := DialCluster(addrs, WithLeaseInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	g := granulesOwnedBy(2, 0, 1)
	if err := cc.AcquireAll(1, xreq(g...)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if n := cc.Failovers(); n != 0 {
		t.Fatalf("%d failovers after an unavailable reply", n)
	}
	j.mu.Lock()
	j.failGrants = false
	j.mu.Unlock()
	if err := cc.AcquireAll(1, xreq(g...)); err != nil {
		t.Fatalf("retry after journal recovery: %v", err)
	}
	if n := servers[0].Table().HeldBy(1); n != 1 {
		t.Fatalf("owner node holds %d granules for txn 1, want 1", n)
	}
}
