package server

import (
	"math"
	"testing"

	"granulock/internal/sim"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSingleJobCompletes(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	var doneAt float64 = -1
	s.Submit(&Job{Size: 2.5, Class: WorkClass, Done: func() { doneAt = e.Now() }})
	e.Run()
	if !almostEqual(doneAt, 2.5) {
		t.Fatalf("job completed at %v, want 2.5", doneAt)
	}
	if !almostEqual(s.Busy(WorkClass), 2.5) {
		t.Fatalf("busy = %v, want 2.5", s.Busy(WorkClass))
	}
}

func TestFIFOWithinClass(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Submit(&Job{Size: 1, Class: WorkClass, Done: func() { order = append(order, i) }})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v, want [0 1 2]", order)
	}
	if !almostEqual(e.Now(), 3) {
		t.Fatalf("final time %v, want 3", e.Now())
	}
}

func TestPreemptiveResume(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	var workDone, lockDone float64 = -1, -1
	s.Submit(&Job{Size: 10, Class: WorkClass, Done: func() { workDone = e.Now() }})
	// At t=3, a lock job of size 2 arrives: work should be preempted and
	// finish at 10+2=12; lock finishes at 5.
	e.At(3, func() {
		s.Submit(&Job{Size: 2, Class: LockClass, Done: func() { lockDone = e.Now() }})
	})
	e.Run()
	if !almostEqual(lockDone, 5) {
		t.Fatalf("lock job done at %v, want 5", lockDone)
	}
	if !almostEqual(workDone, 12) {
		t.Fatalf("preempted work done at %v, want 12", workDone)
	}
	if !almostEqual(s.Busy(LockClass), 2) || !almostEqual(s.Busy(WorkClass), 10) {
		t.Fatalf("busy lock=%v work=%v, want 2/10", s.Busy(LockClass), s.Busy(WorkClass))
	}
}

func TestPreemptedJobResumesBeforeQueuedPeers(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	var order []string
	s.Submit(&Job{Size: 4, Class: WorkClass, Done: func() { order = append(order, "first") }})
	s.Submit(&Job{Size: 1, Class: WorkClass, Done: func() { order = append(order, "second") }})
	e.At(1, func() {
		s.Submit(&Job{Size: 1, Class: LockClass, Done: func() { order = append(order, "lock") }})
	})
	e.Run()
	want := []string{"lock", "first", "second"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestNestedPreemption(t *testing.T) {
	// Lock jobs arriving back to back extend the work job additively.
	var e sim.Engine
	s := New(&e, "cpu0")
	var workDone float64
	s.Submit(&Job{Size: 5, Class: WorkClass, Done: func() { workDone = e.Now() }})
	e.At(1, func() { s.Submit(&Job{Size: 3, Class: LockClass}) })
	e.At(2, func() { s.Submit(&Job{Size: 2, Class: LockClass}) })
	e.Run()
	// Work runs [0,1), lock1 [1,4), lock2 [4,6), work resumes [6,10].
	if !almostEqual(workDone, 10) {
		t.Fatalf("work done at %v, want 10", workDone)
	}
	if !almostEqual(s.Busy(LockClass), 5) {
		t.Fatalf("lock busy %v, want 5", s.Busy(LockClass))
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	var order []int
	s.Submit(&Job{Size: 3, Class: WorkClass, Done: func() { order = append(order, 1) }})
	e.At(1, func() {
		s.Submit(&Job{Size: 1, Class: WorkClass, Done: func() { order = append(order, 2) }})
	})
	e.Run()
	if order[0] != 1 {
		t.Fatalf("equal-priority arrival preempted: %v", order)
	}
}

func TestZeroSizeJob(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	ran := false
	s.Submit(&Job{Size: 0, Class: WorkClass, Done: func() { ran = true }})
	e.Run()
	if !ran {
		t.Fatal("zero-size job Done did not run")
	}
	if s.TotalBusy() != 0 {
		t.Fatalf("zero-size job accrued busy time %v", s.TotalBusy())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	s.Submit(&Job{Size: -1, Class: WorkClass})
}

func TestBusyIncludesInProgress(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	s.Submit(&Job{Size: 10, Class: WorkClass})
	var mid float64
	e.At(4, func() { mid = s.Busy(WorkClass) })
	e.Run()
	if !almostEqual(mid, 4) {
		t.Fatalf("in-progress busy at t=4 was %v, want 4", mid)
	}
}

// QueueLen returns the number of jobs waiting (not in service) in class c.
func (s *Server) QueueLen(c Class) int { return len(s.queues[c]) }

// Idle reports whether the server has no job in service.
func (s *Server) Idle() bool { return s.running == nil }

func TestQueueLenAndIdle(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0")
	if !s.Idle() {
		t.Fatal("new server not idle")
	}
	s.Submit(&Job{Size: 1, Class: WorkClass})
	s.Submit(&Job{Size: 1, Class: WorkClass})
	s.Submit(&Job{Size: 1, Class: WorkClass})
	if s.Idle() {
		t.Fatal("server idle with job in service")
	}
	if got := s.QueueLen(WorkClass); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	e.Run()
	if !s.Idle() || s.QueueLen(WorkClass) != 0 {
		t.Fatal("server not drained")
	}
}

func TestWorkConservation(t *testing.T) {
	// Total busy time equals total submitted demand once drained,
	// regardless of preemption pattern.
	var e sim.Engine
	s := New(&e, "cpu0")
	total := 0.0
	for i := 0; i < 50; i++ {
		size := float64(i%7+1) * 0.3
		class := WorkClass
		if i%3 == 0 {
			class = LockClass
		}
		total += size
		at := float64(i) * 0.2
		e.At(at, func() { s.Submit(&Job{Size: size, Class: class}) })
	}
	e.Run()
	if !almostEqual(s.TotalBusy(), total) {
		t.Fatalf("TotalBusy = %v, want %v", s.TotalBusy(), total)
	}
}

func TestSJFPicksShortestQueuedJob(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0", WithDiscipline(SJF))
	var order []string
	s.Submit(&Job{Size: 2, Class: WorkClass, Done: func() { order = append(order, "first") }})
	// While "first" is in service, a long and a short job queue up.
	s.Submit(&Job{Size: 10, Class: WorkClass, Done: func() { order = append(order, "long") }})
	s.Submit(&Job{Size: 1, Class: WorkClass, Done: func() { order = append(order, "short") }})
	e.Run()
	want := []string{"first", "short", "long"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SJF order %v, want %v", order, want)
		}
	}
}

func TestSJFNonPreemptiveWithinClass(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0", WithDiscipline(SJF))
	var first string
	s.Submit(&Job{Size: 10, Class: WorkClass, Done: func() {
		if first == "" {
			first = "long"
		}
	}})
	e.At(1, func() {
		s.Submit(&Job{Size: 1, Class: WorkClass, Done: func() {
			if first == "" {
				first = "short"
			}
		}})
	})
	e.Run()
	if first != "long" {
		t.Fatalf("SJF preempted within its class (first done: %q)", first)
	}
}

func TestSJFLockClassStaysFIFO(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0", WithDiscipline(SJF))
	var order []int
	s.Submit(&Job{Size: 1, Class: LockClass, Done: func() { order = append(order, 0) }})
	s.Submit(&Job{Size: 5, Class: LockClass, Done: func() { order = append(order, 1) }})
	s.Submit(&Job{Size: 1, Class: LockClass, Done: func() { order = append(order, 2) }})
	e.Run()
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("lock class not FIFO under SJF: %v", order)
	}
}

func TestSJFWorkConservation(t *testing.T) {
	var e sim.Engine
	s := New(&e, "cpu0", WithDiscipline(SJF))
	total := 0.0
	for i := 0; i < 30; i++ {
		size := float64(i%5+1) * 0.7
		total += size
		at := float64(i) * 0.3
		e.At(at, func() { s.Submit(&Job{Size: size, Class: WorkClass}) })
	}
	e.Run()
	if !almostEqual(s.TotalBusy(), total) {
		t.Fatalf("TotalBusy = %v, want %v", s.TotalBusy(), total)
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFS.String() != "fcfs" || SJF.String() != "sjf" {
		t.Fatal("discipline names")
	}
	if Discipline(7).String() == "" {
		t.Fatal("unknown discipline String empty")
	}
}

func TestClassString(t *testing.T) {
	if LockClass.String() != "lock" || WorkClass.String() != "work" {
		t.Fatal("Class.String broken")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class String empty")
	}
}

func BenchmarkServerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e sim.Engine
		s := New(&e, "cpu")
		for j := 0; j < 100; j++ {
			s.Submit(&Job{Size: 1, Class: WorkClass})
		}
		e.Run()
	}
}
