package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events ran out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var e Engine
	var at1, at2 float64
	e.At(1.5, func() { at1 = e.Now() })
	e.At(2.5, func() { at2 = e.Now() })
	e.Run()
	if at1 != 1.5 || at2 != 2.5 {
		t.Fatalf("Now inside events: %v, %v", at1, at2)
	}
	if e.Now() != 2.5 {
		t.Fatalf("final Now = %v, want 2.5", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var fired float64
	e.At(3, func() {
		e.After(2, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 5 {
		t.Fatalf("After(2) from t=3 fired at %v, want 5", fired)
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	ran := false
	ev := e.At(1, func() { ran = true })
	if !ev.Pending() {
		t.Fatal("event not pending after scheduling")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Fatal("event still pending after cancel")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var e Engine
	var got []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.At(float64(i), func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 2 {
		e.Cancel(evs[i])
	}
	e.Run()
	if len(got) != 10 {
		t.Fatalf("ran %d events, want 10: %v", len(got), got)
	}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("order broken after cancels: %v", got)
	}
}

// TestRunUntil drives RunUntilSteps over five events at t=1..5 with
// and without a step budget: the budget stops the loop early with the
// clock on the last event run, and only reaching the horizon advances
// the clock to it.
func TestRunUntil(t *testing.T) {
	const all = math.MaxUint64
	for _, tc := range []struct {
		horizon Time
		max     uint64
		ran     uint64
		now     Time
		pending int
	}{
		{horizon: 3, max: all, ran: 3, now: 3, pending: 2},
		{horizon: 3, max: 2, ran: 2, now: 2, pending: 3},
		{horizon: 3, max: 3, ran: 3, now: 3, pending: 2},
		{horizon: 2.5, max: all, ran: 2, now: 2.5, pending: 3},
		{horizon: 10, max: all, ran: 5, now: 10, pending: 0},
	} {
		var e Engine
		var got []float64
		for _, d := range []float64{1, 2, 3, 4, 5} {
			d := d
			e.At(d, func() { got = append(got, d) })
		}
		n := e.RunUntilSteps(tc.horizon, tc.max)
		if n != tc.ran || uint64(len(got)) != tc.ran {
			t.Errorf("RunUntilSteps(%v, %d) executed %d events (%v), want %d", tc.horizon, tc.max, n, got, tc.ran)
		}
		if e.Now() != tc.now {
			t.Errorf("RunUntilSteps(%v, %d): Now = %v, want %v", tc.horizon, tc.max, e.Now(), tc.now)
		}
		if e.Pending() != tc.pending {
			t.Errorf("RunUntilSteps(%v, %d): pending = %d, want %d", tc.horizon, tc.max, e.Pending(), tc.pending)
		}
	}
}

// A run cut into chunks ends where one unbounded call does.
func TestRunUntilChunked(t *testing.T) {
	var e Engine
	for _, d := range []float64{1, 2, 3, 4, 5} {
		e.At(d, func() {})
	}
	chunks := 0
	for e.RunUntilSteps(4, 2) == 2 {
		chunks++
	}
	if chunks != 2 || e.Now() != 4 || e.Pending() != 1 {
		t.Fatalf("chunks = %d, Now = %v, pending = %d; want 2 full chunks, Now 4, 1 pending", chunks, e.Now(), e.Pending())
	}
	if n := e.RunUntilSteps(4, 2); n != 0 {
		t.Fatalf("a call past the horizon executed %d events", n)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntilSteps(10, 1)
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want 10 after an idle RunUntilSteps", e.Now())
	}
}

func TestRunUntilIncludesHorizonEvents(t *testing.T) {
	var e Engine
	ran := false
	e.At(5, func() { ran = true })
	e.RunUntilSteps(5, 1)
	if !ran {
		t.Fatal("event exactly at horizon did not run")
	}
}

func TestSchedulingInsidePastPanics(t *testing.T) {
	var e Engine
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCascadedScheduling(t *testing.T) {
	// Events scheduling further events: a chain of N hops lands at time N.
	var e Engine
	const n = 1000
	count := 0
	var hop func()
	hop = func() {
		count++
		if count < n {
			e.After(1, hop)
		}
	}
	e.After(1, hop)
	steps := e.Run()
	if steps != n || e.Now() != float64(n) {
		t.Fatalf("chain: steps=%d now=%v, want %d/%d", steps, e.Now(), n, n)
	}
}

func TestStepsCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("Steps = %d, want 7", e.Steps())
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	// Property: any multiset of times is executed in sorted order.
	f := func(raw []uint16) bool {
		var e Engine
		var got []float64
		for _, r := range raw {
			d := float64(r)
			e.At(d, func() { got = append(got, d) })
		}
		e.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
