// Package server models single-resource servers (a CPU or a disk) for the
// discrete-event simulation.
//
// Each Server serves one job at a time. Jobs belong to priority classes;
// within a class service is FIFO, and a higher-priority arrival preempts
// the job in service (preemptive-resume: the preempted job keeps its
// progress and re-enters the head of its class queue). This matches the
// paper's model, where "the locking mechanism has preemptive power over
// running transactions for I/O and CPU resources".
//
// Servers keep exact per-class busy-time accounting, which the model uses
// to report totcpus/totios and lockcpus/lockios.
package server

import (
	"fmt"
	"slices"

	"granulock/internal/sim"
)

// Class is a job priority class. Lower values have higher priority.
type Class int

const (
	// LockClass is lock-management work; it preempts transaction work.
	LockClass Class = iota
	// WorkClass is ordinary transaction (sub-transaction) service.
	WorkClass
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case LockClass:
		return "lock"
	case WorkClass:
		return "work"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Job is a unit of service demand submitted to a Server. Done, if
// non-nil, runs when the job's full Size has been served.
type Job struct {
	Size  float64 // total service demand, in time units
	Class Class
	Done  func()

	remaining float64
}

// Discipline selects the order jobs of one class are served in.
type Discipline int

const (
	// FCFS serves jobs in arrival order (the model's default).
	FCFS Discipline = iota
	// SJF serves the job with the smallest remaining demand first
	// (non-preemptive within the class). The paper's companion work
	// (ref [3]) reports the sub-transaction discipline has only a
	// marginal effect on the granularity conclusions; the extension
	// experiment ext-discipline verifies that here.
	SJF
)

// String returns the discipline name.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case SJF:
		return "sjf"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Server is a single preemptive-priority resource. Create one with New.
type Server struct {
	eng  *sim.Engine
	name string
	disc Discipline

	queues  [numClasses][]*Job
	running *Job
	runEv   *sim.Event
	runFrom sim.Time
	runDone func() // s.complete, bound once: a start allocates no closure

	busy [numClasses]float64
}

// Option configures a Server.
type Option func(*Server)

// WithDiscipline sets the service order of WorkClass jobs (LockClass is
// always FCFS: the lock manager serializes requests anyway).
func WithDiscipline(d Discipline) Option {
	return func(s *Server) { s.disc = d }
}

// New returns an idle server attached to the engine. The name appears in
// diagnostics only.
func New(eng *sim.Engine, name string, opts ...Option) *Server {
	s := &Server{eng: eng, name: name}
	s.runDone = s.complete
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Submit enqueues a job for service. Jobs with Size 0 complete without
// occupying the server (their Done runs as a zero-delay event, preserving
// event ordering). Negative sizes panic.
func (s *Server) Submit(j *Job) {
	if j.Size < 0 {
		panic(fmt.Sprintf("server %s: negative job size %v", s.name, j.Size))
	}
	if j.Class < 0 || j.Class >= numClasses {
		panic(fmt.Sprintf("server %s: invalid class %d", s.name, j.Class))
	}
	if j.Size == 0 {
		if j.Done != nil {
			s.eng.After(0, j.Done)
		}
		return
	}
	j.remaining = j.Size
	s.queues[j.Class] = append(s.queues[j.Class], j)
	s.dispatch()
}

// dispatch ensures the highest-priority available job is in service,
// preempting a lower-priority running job if necessary.
func (s *Server) dispatch() {
	next := s.headClass()
	if next < 0 {
		return
	}
	if s.running != nil {
		if Class(next) >= s.running.Class {
			return // current job has equal or higher priority
		}
		s.preempt()
	}
	s.start(Class(next))
}

// headClass returns the highest-priority non-empty class, or -1.
func (s *Server) headClass() int {
	for c := 0; c < int(numClasses); c++ {
		if len(s.queues[c]) > 0 {
			return c
		}
	}
	return -1
}

// preempt stops the running job, banks its progress, and returns it to
// the head of its class queue.
//
//granulint:hotpath
func (s *Server) preempt() {
	j := s.running
	elapsed := s.eng.Now() - s.runFrom
	s.busy[j.Class] += elapsed
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	s.eng.Cancel(s.runEv)
	s.running, s.runEv = nil, nil
	// Preemptive-resume: the job resumes before others of its class.
	s.queues[j.Class] = slices.Insert(s.queues[j.Class], 0, j)
}

// start removes the next job of class c per the discipline and begins
// serving it.
//
//granulint:hotpath
func (s *Server) start(c Class) {
	q := s.queues[c]
	pick := 0
	if s.disc == SJF && c == WorkClass {
		for i := 1; i < len(q); i++ {
			if q[i].remaining < q[pick].remaining {
				pick = i
			}
		}
	}
	j := q[pick]
	copy(q[pick:], q[pick+1:])
	q[len(q)-1] = nil
	s.queues[c] = q[:len(q)-1]

	s.running = j
	s.runFrom = s.eng.Now()
	s.runEv = s.eng.After(j.remaining, s.runDone)
}

// complete finishes the running job, the one whose completion event
// fired (a preemption cancels it), and dispatches the next one.
func (s *Server) complete() {
	j := s.running
	s.busy[j.Class] += s.eng.Now() - s.runFrom
	s.running, s.runEv = nil, nil
	if j.Done != nil {
		j.Done()
	}
	s.dispatch()
}

// Busy returns the cumulative busy time of class c up to the current
// simulated time, including the in-progress portion of a running job.
func (s *Server) Busy(c Class) float64 {
	total := s.busy[c]
	if s.running != nil && s.running.Class == c {
		total += s.eng.Now() - s.runFrom
	}
	return total
}

// TotalBusy returns cumulative busy time across all classes.
func (s *Server) TotalBusy() float64 {
	total := 0.0
	for c := Class(0); c < numClasses; c++ {
		total += s.Busy(c)
	}
	return total
}
