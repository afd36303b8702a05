package lockmgr

import (
	"testing"
	"unsafe"
)

// TestParkedClaimSize pins the record every parked request lives in.
// The allocation rates the benchmark reports through the records that
// pools retire rest on size classes: claimRecordUses is tuned to a
// 336-byte record (class 352), and locksrv's parkedAcquire, which embeds
// one, to 448 bytes, 8 short of the next class (parkedRecordUses).
func TestParkedClaimSize(t *testing.T) {
	if got := unsafe.Sizeof(ParkedClaim{}); got != 336 {
		t.Fatalf("ParkedClaim is %d bytes, want 336: re-derive the claimRecordUses comment here and the parkedRecordUses one in locksrv before changing it", got)
	}
}

// stepOn runs one incremental wound-wait request on c and requires its
// verdict: grant (wantWait false) or wait.
func stepOn(t *testing.T, c *core, txn TxnID, g Granule, wantWait bool) {
	t.Helper()
	if wait, err := c.step(txn, g, ModeExclusive, ageWoundWait); wait != wantWait || err != nil {
		t.Fatalf("txn %d, granule %d: wait %v, err %v; want wait %v", txn, g, wait, err, wantWait)
	}
}

// A wound reaches a parked holder through the record it parked in, which
// is pooled: once that request was granted, the record may carry another
// request. Here txn 5 parks, is granted and goes on holding; its record
// is parked again on granule 12; and txn 1 wounds 5. The wound must mark
// 5 and leave the new request parked. The pool is shared by every table
// and TxnIDs are per table, so the new request may be another table's,
// made under 5's own TxnID.
func TestWoundSkipsRecycledRecord(t *testing.T) {
	const older, holder, victim, other = 1, 3, 5, 7
	for _, tc := range []struct {
		name       string
		otherTable bool
		txn        TxnID // who parks the record again
	}{
		{"same_table", false, other},
		{"another_table_same_txn", true, victim},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, c2 := &NewTable().core, &NewTable().core
			if !tc.otherTable {
				c2 = c
			}
			w := new(ParkedClaim)
			stepOn(t, c, victim, 10, false)
			stepOn(t, c, holder, 11, false)
			stepOn(t, c, victim, 11, true) // younger than the holder: waits
			c.parkStep(w, victim, 11, ModeExclusive, ageWoundWait)
			c.release(holder)
			if got := c.take(nil); len(got) != 1 || got[0] != w || w.err != nil {
				t.Fatalf("the holder's release resolved %v, want the victim's grant", got)
			}

			stepOn(t, c2, holder, 12, false)
			stepOn(t, c2, tc.txn, 12, true)
			c2.parkStep(w, tc.txn, 12, ModeExclusive, ageWoundWait)
			stepOn(t, c, older, 10, true) // wounds the victim, then waits for it
			if got := append(c.take(nil), c2.take(nil)...); len(got) != 0 {
				t.Fatalf("the wound resolved %d requests (first: txn %d, %v), want none", len(got), got[0].txn, got[0].err)
			}
			if gs := c2.granules[12]; !w.parked || len(gs.waiters) != 1 || gs.waiters[0] != w {
				t.Fatalf("txn %d's request left its queue", tc.txn)
			}
			if wait, err := c.step(victim, 13, ModeShared, ageWoundWait); err != ErrWounded {
				t.Fatalf("the victim's next request: wait %v, err %v; want ErrWounded", wait, err)
			}
		})
	}
}
