package lockmgr

import (
	"context"
	"testing"

	"granulock/internal/obs"
)

// TestMetricsEqualStats pins the registry's lockmgr counters to
// Table.Stats, which they read at scrape time. The schedule is one a
// second, registry-side store miscounted: a wait that closes a cycle
// ends at once with its requester the victim, and is still a wait.
func TestMetricsEqualStats(t *testing.T) {
	reg := obs.NewRegistry()
	tab := NewTable(WithMetrics(reg))
	mustAcquire(t, tab, 1, 1, ModeExclusive)
	mustAcquire(t, tab, 2, 2, ModeExclusive)
	done := make(chan error, 1)
	go func() { done <- tab.Acquire(context.Background(), 1, 2, ModeExclusive) }()
	waitParked(t, tab, 1)
	if err := tab.Acquire(context.Background(), 2, 1, ModeExclusive); err != ErrDeadlock {
		t.Fatalf("txn 2 closing the cycle: %v, want ErrDeadlock", err)
	}
	tab.ReleaseAll(2)
	granted(t, "txn 1's wait for granule 2", done)
	tab.ReleaseAll(1)

	st := tab.Stats()
	if want := (Stats{Grants: 3, Blocks: 2, Deadlocks: 1}); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	for name, want := range map[string]int64{
		"granulock_lockmgr_grants_total":    st.Grants,
		"granulock_lockmgr_waits_total":     st.Blocks,
		"granulock_lockmgr_deadlocks_total": st.Deadlocks,
	} {
		if got, ok := reg.Value(name, nil); !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), want %d as in Stats", name, got, ok, want)
		}
	}
}
