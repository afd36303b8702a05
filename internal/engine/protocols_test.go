package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"granulock/internal/engine/cc"
	"granulock/internal/obs"
)

// TestBalanceInvariantAllProtocols runs the bank-transfer workload
// under every registered protocol — including any registered outside
// this package — and checks the §1 conservation invariant. The
// workload is deliberately contended (hot entities, zipf skew) so the
// restart paths actually fire: wound-wait wounds, wait-die deaths, and
// optimistic validation failures all exercise abort-then-retry under
// concurrency. Run under -race this is the suite's main isolation
// check.
func TestBalanceInvariantAllProtocols(t *testing.T) {
	for _, protocol := range cc.Names() {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			db, err := Open(200,
				WithNodes(4),
				WithGranules(20),
				WithProtocol(protocol),
				WithInitialValue(100),
				WithEscalationThreshold(8))
			if err != nil {
				t.Fatal(err)
			}
			want := db.TotalBalance()
			res, err := db.RunClosed(context.Background(), Workload{
				Workers: 8, TxnsPerWorker: 150, TransfersPerTxn: 2,
				ReadFraction: 0.2, HotEntities: 10, ZipfSkew: 0.9,
				WorkPerTxn: 2000, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := db.TotalBalance(); got != want {
				t.Fatalf("conservation violated under %s: %d, want %d", protocol, got, want)
			}
			if res.Committed != 8*150 {
				t.Fatalf("committed %d, want %d", res.Committed, 8*150)
			}
			s := db.Stats()
			t.Logf("%s: restarts=%d wounds=%d dies=%d vfails=%d grants=%d",
				protocol, s.Restarts, s.Wounds, s.Dies, s.ValidationFails, s.Lock.Grants)
		})
	}
}

// TestRestartCausesAddUp pins how restarts are counted: once each, by
// the protocol where it raises them (Lock.Deadlocks, Wounds, Dies,
// ValidationFails), with Stats.Restarts and each
// granulock_engine_restarts_total{cause} series reading those counts.
// Every attempt takes one transaction id and every attempt of this
// workload either commits or restarts, so the ids handed out must equal
// commits plus restarts: a restart counted twice, or not at all, shows.
func TestRestartCausesAddUp(t *testing.T) {
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			reg := obs.NewRegistry()
			db, err := Open(200,
				WithNodes(4),
				WithGranules(20),
				WithProtocol(protocol),
				WithInitialValue(100),
				WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.RunClosed(context.Background(), Workload{
				Workers: 8, TxnsPerWorker: 100, TransfersPerTxn: 3,
				ReadFraction: 0.3, HotEntities: 40, WorkPerTxn: 2000, Seed: 11,
			}); err != nil {
				t.Fatal(err)
			}
			s := db.Stats()
			sum := int64(0)
			for cause, want := range map[string]int64{
				"deadlock":   s.Lock.Deadlocks,
				"wounded":    s.Wounds,
				"die":        s.Dies,
				"validation": s.ValidationFails,
			} {
				sum += want
				got, ok := reg.Value("granulock_engine_restarts_total", map[string]string{"cause": cause})
				if !ok || got != float64(want) {
					t.Errorf("granulock_engine_restarts_total{cause=%q} = %v (present %v), want %d", cause, got, ok, want)
				}
			}
			if s.Restarts != sum {
				t.Errorf("Stats.Restarts = %d, want the causes' sum %d", s.Restarts, sum)
			}
			if attempts := db.nextTxn.Load(); attempts != s.Committed+s.Restarts {
				t.Errorf("%d attempts, but %d commits + %d restarts", attempts, s.Committed, s.Restarts)
			}
			if got, ok := reg.Value("granulock_engine_commits_total", nil); !ok || got != float64(s.Committed) {
				t.Errorf("granulock_engine_commits_total = %v (present %v), want %d", got, ok, s.Committed)
			}
			t.Logf("%s: %d commits, %d restarts %+v", protocol, s.Committed, s.Restarts, s.Stats)
		})
	}
}

// TestOptimisticAbortHeavy forces the optimistic protocol into a
// validation-failure storm: every transaction reads and writes the same
// two granules, so concurrent commits invalidate each other constantly.
// Conservation must survive the churn and the failure counter must
// actually move (otherwise the validator is vacuous).
func TestOptimisticAbortHeavy(t *testing.T) {
	db, err := Open(100,
		WithNodes(2),
		WithGranules(2),
		WithProtocol(Optimistic),
		WithInitialValue(100))
	if err != nil {
		t.Fatal(err)
	}
	want := db.TotalBalance()
	if _, err := db.RunClosed(context.Background(), Workload{
		Workers: 8, TxnsPerWorker: 150, TransfersPerTxn: 2,
		WorkPerTxn: 2000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.TotalBalance(); got != want {
		t.Fatalf("conservation violated: %d, want %d", got, want)
	}
	if s := db.Stats(); s.ValidationFails == 0 {
		t.Log("warning: no validation failures observed (scheduling-dependent); invariants still verified")
	} else if s.Restarts != s.ValidationFails {
		t.Fatalf("restarts %d != validation failures %d (optimistic has no other abort cause)",
			s.Restarts, s.ValidationFails)
	}
}

// TestOptimisticValidationDeterministic drives the protocol instance
// directly to force the exact Kung–Robinson conflict: T1 reads a
// granule, T2 writes it and commits first, T1's validation must fail
// with the typed restart error.
func TestOptimisticValidationDeterministic(t *testing.T) {
	db, err := Open(10, WithProtocol(Optimistic), WithInitialValue(100))
	if err != nil {
		t.Fatal(err)
	}
	inst := db.Instance()
	ctx := context.Background()

	t1 := &cc.Tx{ID: 1, Priority: 1}
	inst.Begin(ctx, t1)
	if v := inst.Read(t1, 0); v != 100 {
		t.Fatalf("T1 read %d, want 100", v)
	}

	t2 := &cc.Tx{ID: 2, Priority: 2}
	inst.Begin(ctx, t2)
	inst.Write(t2, 0, 5)
	if err := inst.Commit(ctx, t2, nil); err != nil {
		t.Fatalf("T2 commit: %v", err)
	}
	inst.End(t2)

	err = inst.Commit(ctx, t1, nil)
	inst.End(t1)
	var re *cc.RestartError
	if !errors.Is(err, cc.ErrRestart) || !errors.As(err, &re) || re.Kind != "validation" {
		t.Fatalf("T1 commit err = %v, want validation restart", err)
	}
	if got := inst.Stats().ValidationFails; got != 1 {
		t.Fatalf("ValidationFails = %d, want 1", got)
	}
	if v, _ := db.Read(0); v != 105 {
		t.Fatalf("entity 0 = %d, want 105 (T2's write only)", v)
	}
}

// TestWoundWaitVictimStorm runs a crowd of eight clients, four transfers
// each, over four granules, so nearly every transaction conflicts and
// the age policies restart constantly. Conservation and completion are
// the first assertions; starvation-freedom is the point (restarted
// transactions keep their original priority and age into
// invincibility). The age verdict is the lock table's, made against
// every blocker, so no wait can close a cycle: the detector never fires,
// and every restart is the policy's own — a wound under wound-wait, a
// death under wait-die.
func TestWoundWaitVictimStorm(t *testing.T) {
	for _, protocol := range []Protocol{WoundWait, WaitDie} {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				db, err := Open(100,
					WithNodes(2),
					WithGranules(4),
					WithProtocol(protocol),
					WithInitialValue(100))
				if err != nil {
					t.Fatal(err)
				}
				want := db.TotalBalance()
				done := make(chan error, 1)
				go func() {
					_, err := db.RunClosed(context.Background(), Workload{
						Workers: 8, TxnsPerWorker: 100, TransfersPerTxn: 4,
						WorkPerTxn: 5000, Seed: seed,
					})
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatalf("%s storm hung on seed %d (starvation?)", protocol, seed)
				}
				if got := db.TotalBalance(); got != want {
					t.Fatalf("seed %d: conservation violated: %d, want %d", seed, got, want)
				}
				s := db.Stats()
				t.Logf("seed %d: restarts=%d wounds=%d dies=%d deadlocks=%d", seed, s.Restarts, s.Wounds, s.Dies, s.Lock.Deadlocks)
				policy := s.Wounds
				if protocol == WaitDie {
					policy = s.Dies
				}
				if s.Lock.Deadlocks != 0 || s.Restarts != policy {
					t.Fatalf("seed %d: %d restarts, %d by the policy, %d deadlock victims; want every restart the policy's and none from the detector",
						seed, s.Restarts, policy, s.Lock.Deadlocks)
				}
			}
		})
	}
}

// TestSleepBackoffHonorsContext is the regression test for the
// cancel-during-backoff bug: a context cancelled while a restart
// victim sleeps must interrupt the sleep immediately, not after the
// full (up to ~12.8ms, formerly unbounded) backoff window elapses.
func TestSleepBackoffHonorsContext(t *testing.T) {
	// Already-cancelled context: must return before sleeping at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sleepBackoff(ctx, backoffCapAttempt, 12345); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Millisecond {
		t.Fatalf("cancelled ctx slept %v", d)
	}

	// Cancel landing mid-sleep: pick a seed whose jittered delay fills
	// most of the capped ~12.8ms window, and hand sleepBackoff a context
	// that is already done but reports no error to its pre-check, so
	// only the select can see the cancellation. It must return
	// (canceled) well before the delay would elapse.
	window := uint64(100 * time.Microsecond << backoffCapAttempt)
	seed := uint64(1)
	for ; ; seed++ {
		s := seed
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if s%window > window*3/4 {
			break
		}
	}
	start = time.Now()
	err := sleepBackoff(newLateCancelCtx(), backoffCapAttempt, seed)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sleep cancel: err = %v", err)
	}
	if elapsed > 6*time.Millisecond {
		t.Fatalf("mid-sleep cancel returned after %v (delay was > %v)", elapsed, time.Duration(window*3/4))
	}
}

// lateCancelCtx is a context whose Done channel is closed from the
// start while its first Err call reports nil: a cancellation that
// lands between a caller's Err check and its wait, without a
// goroutine racing a timer to get there.
type lateCancelCtx struct {
	context.Context
	done    chan struct{}
	checked bool
}

func newLateCancelCtx() *lateCancelCtx {
	c := &lateCancelCtx{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *lateCancelCtx) Done() <-chan struct{} { return c.done }

func (c *lateCancelCtx) Err() error {
	if !c.checked {
		c.checked = true
		return nil
	}
	return context.Canceled
}

// TestExecuteCancelledContext checks Execute refuses immediately on a
// dead context instead of attempting the transaction.
func TestExecuteCancelledContext(t *testing.T) {
	db := openBase(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Execute(ctx, Transfer(1, 2, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := db.Stats(); s.Committed != 0 {
		t.Fatalf("committed %d on a cancelled context", s.Committed)
	}
}
