package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// fingerprint hashes the full database state, entity by entity.
func fingerprint(t *testing.T, db *DB) uint64 {
	t.Helper()
	h := fnv.New64a()
	for e := 0; e < db.cfg.DBSize; e++ {
		v, err := db.Read(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:%d;", e, v)
	}
	return h.Sum64()
}

// pinWorkload is the deterministic serial workload the goldens below
// were captured under (single worker, so commit order is fixed and the
// fingerprints are exact).
var pinWorkload = Workload{
	Workers: 1, TxnsPerWorker: 500, TransfersPerTxn: 3,
	ReadFraction: 0.3, ZipfSkew: 0.8, Seed: 42,
}

// TestPinnedProtocolEquivalence pins the ported protocols to the exact
// behavior of the pre-refactor engine (commit c29d27b4 lineage): the
// goldens below were captured by running pinWorkload against the old
// switch-based Execute, before the concurrency-control paths moved into
// internal/engine/cc. Bit-identical final state AND identical
// lock-manager decision counts mean the refactor changed no observable
// commit or lock decision. If this test fails after an intentional
// semantic change, recapture the goldens and say so in the commit.
func TestPinnedProtocolEquivalence(t *testing.T) {
	const goldenHash = uint64(0x8f4b01a9f64d376d)
	for _, tc := range []struct {
		protocol Protocol
		granules int
		escalate int
		grants   int64
		esc      int64
	}{
		{Conservative, 1, 0, 500, 0},
		{Conservative, 16, 0, 500, 0},
		{Conservative, 1000, 0, 500, 0},
		{ClaimAsNeeded, 1, 0, 500, 0},
		{ClaimAsNeeded, 16, 0, 1965, 0},
		{ClaimAsNeeded, 1000, 0, 2945, 0},
		{Hierarchical, 16, 0, 2465, 0},
		{Hierarchical, 1000, 6, 3445, 448},
	} {
		name := fmt.Sprintf("%s/g%d/esc%d", tc.protocol, tc.granules, tc.escalate)
		t.Run(name, func(t *testing.T) {
			db := openBase(t, WithGranules(tc.granules), WithProtocol(tc.protocol),
				WithEscalationThreshold(tc.escalate))
			res, err := db.RunClosed(context.Background(), pinWorkload)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 500 {
				t.Fatalf("committed %d, want 500", res.Committed)
			}
			if got := fingerprint(t, db); got != goldenHash {
				t.Fatalf("final state hash %#x, want golden %#x", got, goldenHash)
			}
			s := db.Stats()
			if s.Lock.Grants != tc.grants || s.Lock.Blocks != 0 ||
				s.Lock.Deadlocks != 0 || s.Restarts != 0 || s.Escalations != tc.esc {
				t.Fatalf("decisions diverged from golden: grants=%d (want %d) blocks=%d deadlocks=%d retries=%d esc=%d (want %d)",
					s.Lock.Grants, tc.grants, s.Lock.Blocks, s.Lock.Deadlocks, s.Restarts, s.Escalations, tc.esc)
			}
		})
	}
}

// TestPinnedSerialAgreementNewProtocols runs the same deterministic
// serial workload under the three new protocols: with no concurrency
// every protocol must produce the identical golden final state, no
// restarts, and (for the lockless optimistic path) no lock traffic.
func TestPinnedSerialAgreementNewProtocols(t *testing.T) {
	const goldenHash = uint64(0x8f4b01a9f64d376d)
	for _, protocol := range []Protocol{WoundWait, WaitDie, Optimistic} {
		t.Run(protocol, func(t *testing.T) {
			db := openBase(t, WithGranules(16), WithProtocol(protocol))
			res, err := db.RunClosed(context.Background(), pinWorkload)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != 500 {
				t.Fatalf("committed %d, want 500", res.Committed)
			}
			if got := fingerprint(t, db); got != goldenHash {
				t.Fatalf("final state hash %#x, want golden %#x", got, goldenHash)
			}
			s := db.Stats()
			if s.Restarts != 0 || s.Wounds != 0 || s.Dies != 0 || s.ValidationFails != 0 {
				t.Fatalf("serial run restarted: %+v", s)
			}
			if protocol == Optimistic && s.Lock.Grants != 0 {
				t.Fatalf("optimistic protocol took %d locks", s.Lock.Grants)
			}
		})
	}
}
