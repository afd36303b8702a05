package model

import (
	"context"

	"granulock/internal/partition"
	"granulock/internal/rng"
	"granulock/internal/sched"
	"granulock/internal/server"
	"granulock/internal/sim"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

// txnState tracks where a transaction is in its lifecycle.
type txnState int8

const (
	statePending txnState = iota
	stateRequesting
	stateBlocked
	stateActive
	stateDone
)

// txn is one live transaction of the closed population.
type txn struct {
	id      int
	spec    workload.Spec
	arrival sim.Time // pending-queue entry time; response clock start
	state   txnState

	// visitsLeft counts the processor visits t still waits for: its lock
	// request's shares while it requests, its sub-transactions while it
	// is active. The two phases never overlap.
	visitsLeft int
	blocked    []*txn // transactions this one blocks (release set)
}

// simulation is the run-time state of one simulation run. It lives on a
// single goroutine; all concurrency is simulated.
type simulation struct {
	p   Params
	eng *sim.Engine

	cpus  []*server.Server
	disks []*server.Server

	gen *workload.Generator
	// srcConflict feeds the conflict draw; ltotEff is the conflict
	// space it draws over (Params.ConflictSpace).
	srcConflict *rng.Source
	ltotEff     float64
	srcProcs    *rng.Source
	policy      sched.Policy

	pending  txnRing
	active   []*txn
	lockBusy bool
	nextID   int

	// blockedFree recycles the backing arrays of release sets: a
	// completed transaction's blocked slice is drained into the pending
	// ring and then reused by the next transaction that blocks someone,
	// so steady-state blocking allocates nothing.
	blockedFree [][]*txn
	// releaseOne is scratch for the single-transaction requeue on the
	// blocker-completed-during-lock-processing path.
	releaseOne [1]*txn

	// accumulators
	completed    int
	respSum      float64
	lockRequests int
	lockDenials  int
	entitiesDone int
	activeArea   float64  // ∫ |active| dt, for MeanActive
	activeStamp  sim.Time // last time activeArea was brought current

	obs trace.Observer // nil: no observer
	// base holds the accumulator snapshot taken at the warmup boundary;
	// reported metrics cover (Warmup, TMax] only.
	base baseline
}

// baseline is the accumulator state at the warmup boundary.
type baseline struct {
	totCPUs, totIOs   float64
	lockCPUs, lockIOs float64
	completed         int
	respSum           float64
	lockRequests      int
	lockDenials       int
	entitiesDone      int
	activeArea        float64
}

// Run executes the model once and returns its output parameters. It is
// deterministic: equal Params produce identical Metrics.
func Run(p Params) (Metrics, error) { return RunContext(context.Background(), p, nil) }

// cancelCheckEvery is how many events RunContext executes between
// context checks — large enough that the check is free relative to the
// event work, small enough that cancellation lands within microseconds.
const cancelCheckEvery = 4096

// RunContext is the model's one event loop: Run with a lifecycle
// observer and cooperative cancellation. A nil ctx means
// context.Background() and a nil obs means no observer. The observer
// sees every event including those inside the warmup window; the
// returned Metrics cover (Warmup, TMax] only. The loop runs in bounded
// chunks and stops with ctx.Err() if the context is cancelled between
// chunks; the chunking changes when the loop checks for cancellation,
// never the event order, so a completed run's Metrics do not depend on
// ctx.
func RunContext(ctx context.Context, p Params, obs trace.Observer) (Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := startRun(p, obs)
	if err != nil {
		return Metrics{}, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		if s.eng.RunUntilSteps(p.TMax, cancelCheckEvery) < cancelCheckEvery {
			break
		}
	}
	return s.metrics(), nil
}

// startRun validates, wires and seeds a simulation, ready for its
// event loop.
func startRun(p Params, obs trace.Observer) (*simulation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s, err := newSimulation(p)
	if err != nil {
		return nil, err
	}
	s.obs = obs
	s.scheduleInitialArrivals()
	if p.Warmup > 0 {
		s.eng.At(p.Warmup, s.captureBaseline)
	}
	return s, nil
}

// captureBaseline snapshots the accumulators at the warmup boundary.
func (s *simulation) captureBaseline() {
	s.touchActiveArea()
	for i := 0; i < s.p.NPros; i++ {
		s.base.totCPUs += s.cpus[i].TotalBusy()
		s.base.totIOs += s.disks[i].TotalBusy()
		s.base.lockCPUs += s.cpus[i].Busy(server.LockClass)
		s.base.lockIOs += s.disks[i].Busy(server.LockClass)
	}
	s.base.completed = s.completed
	s.base.respSum = s.respSum
	s.base.lockRequests = s.lockRequests
	s.base.lockDenials = s.lockDenials
	s.base.entitiesDone = s.entitiesDone
	s.base.activeArea = s.activeArea
}

// newSimulation wires up servers, generators and the conflict draw.
func newSimulation(p Params) (*simulation, error) {
	root := rng.New(p.Seed)
	genSrc := root.Stream(1)
	conflictSrc := root.Stream(2)
	procSrc := root.Stream(3)

	gen, err := workload.NewGenerator(p.DBSize, p.Ltot, p.Placement, p.ClassMix(), genSrc)
	if err != nil {
		return nil, err
	}
	// The run adapts its own copy of the policy: a stateful one shared
	// by sequential or concurrent runs would carry one run's admission
	// state into the next, and race between concurrent ones.
	var policy sched.Policy = sched.Unlimited{}
	if p.Scheduler != nil {
		policy = p.Scheduler.Clone()
	}

	s := &simulation{
		p:           p,
		eng:         &sim.Engine{},
		gen:         gen,
		srcConflict: conflictSrc,
		ltotEff:     float64(p.ConflictSpace()),
		srcProcs:    procSrc,
		policy:      policy,
	}
	s.cpus = make([]*server.Server, p.NPros)
	s.disks = make([]*server.Server, p.NPros)
	disc := server.WithDiscipline(p.Discipline)
	for i := 0; i < p.NPros; i++ {
		s.cpus[i] = server.New(s.eng, cpuName(i), disc)
		s.disks[i] = server.New(s.eng, diskName(i), disc)
	}
	return s, nil
}

func cpuName(i int) string  { return "cpu" + itoa(i) }
func diskName(i int) string { return "disk" + itoa(i) }

// itoa avoids pulling strconv into the hot path for two diagnostic
// strings; servers are named once at construction.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// scheduleInitialArrivals injects the closed population, one transaction
// per time unit ("initially, transactions arrive one time unit apart").
func (s *simulation) scheduleInitialArrivals() {
	for i := 0; i < s.p.NTrans; i++ {
		at := sim.Time(i)
		s.eng.At(at, func() { s.arrive(s.newTxn()) })
	}
}

// newTxn draws a fresh transaction from the generator.
func (s *simulation) newTxn() *txn {
	s.nextID++
	return &txn{id: s.nextID, spec: s.gen.Next()}
}

// arrive places t at the pending-queue tail and pokes the dispatcher.
func (s *simulation) arrive(t *txn) {
	t.arrival = s.eng.Now()
	t.state = statePending
	s.pending.PushTail(t)
	if s.obs != nil {
		s.obs.Observe(trace.Event{Kind: trace.EventArrive, At: t.arrival, Txn: t.id,
			Entities: t.spec.Entities, Locks: t.spec.Locks})
	}
	s.tryDispatch()
}

// tryDispatch starts the lock request of the pending-queue head if the
// lock manager is free and the admission policy allows it. The lock
// manager processes one request at a time; its work is executed in
// parallel by all processors (or by processor 0 under the
// dedicated-lock-processor ablation).
func (s *simulation) tryDispatch() {
	if s.lockBusy || s.pending.Len() == 0 {
		return
	}
	if !s.policy.CanAdmit(len(s.active)) {
		return
	}
	t := s.pending.PopHead()

	t.state = stateRequesting
	s.lockBusy = true
	if s.obs != nil {
		s.obs.Observe(trace.Event{Kind: trace.EventRequest, At: s.eng.Now(), Txn: t.id})
	}

	// The conflict decision is drawn against the transactions active at
	// request initiation; the lock-processing cost is paid either way.
	s.chargeLockWork(t, s.decideConflict(t))
}

// decideConflict draws the Ries–Stonebraker conflict decision for t
// (§2, "The computation of lock conflicts") and returns its blocker, or
// nil if the request is granted. With the active transactions T1..Tk
// holding L1..Lk locks of a conflict space of ltot, (0,1] is split into
// partitions of widths Lj/ltot plus a remainder; a uniform draw landing
// in partition j blocks t on Tj, one landing in the remainder grants.
// t's own demand never blocks it, and while no transaction is active
// nothing is drawn. Active transactions that jointly cover the space
// block every request. The running sum adds each Lj/ltot in active
// order: dividing ΣLj once instead moves draws that land on a partition
// boundary, and with them every seeded run.
//
//granulint:hotpath
func (s *simulation) decideConflict(t *txn) *txn {
	if len(s.active) == 0 {
		return nil
	}
	p := s.srcConflict.Float64OC()
	cum := 0.0
	for _, a := range s.active {
		cum += float64(a.spec.Locks) / s.ltotEff
		if p <= cum {
			return a
		}
	}
	return nil
}

// visit is one processor visit: ioDemand on proc's disk, then cpuDemand
// on its CPU, both at class priority, calling done once the CPU has
// served it. One job serves both stints, so a visit allocates one job
// and one closure.
func (s *simulation) visit(proc int, class server.Class, ioDemand, cpuDemand float64, done func()) {
	j := &server.Job{Size: ioDemand, Class: class}
	cpu := s.cpus[proc]
	j.Done = func() {
		j.Size, j.Done = cpuDemand, done
		cpu.Submit(j)
	}
	s.disks[proc].Submit(j)
}

// chargeLockWork submits t's lock-processing demand — LU·liotime of I/O
// and LU·lcputime of CPU, the release cost included — to the lock
// servers at preemptive priority, then finishes the request against
// blocker. Shared mode divides the work evenly across all processors;
// dedicated mode puts it all on processor 0.
func (s *simulation) chargeLockWork(t *txn, blocker *txn) {
	procs := s.p.NPros
	share := 1.0 / float64(procs)
	if s.p.DedicatedLockProcessor {
		procs = 1
		share = 1.0
	}
	ioDemand := float64(t.spec.Locks) * s.p.LockIOTime * share
	cpuDemand := float64(t.spec.Locks) * s.p.LockCPUTime * share

	t.visitsLeft = procs
	done := func() {
		t.visitsLeft--
		if t.visitsLeft == 0 {
			s.lockRequestDone(t, blocker)
		}
	}
	for i := 0; i < procs; i++ {
		s.visit(i, server.LockClass, ioDemand, cpuDemand, done)
	}
}

// lockRequestDone finishes t's lock request: grant and activate, or park
// in the blocked set of its blocker. The blocker may have completed
// while the request was being processed; then t retries immediately.
func (s *simulation) lockRequestDone(t *txn, blocker *txn) {
	s.lockBusy = false
	s.lockRequests++
	granted := blocker == nil
	s.policy.Observe(granted)
	if s.obs != nil {
		e := trace.Event{Kind: trace.EventGrant, At: s.eng.Now(), Txn: t.id}
		if !granted {
			e.Kind, e.Blocker = trace.EventDeny, &blocker.id
		}
		s.obs.Observe(e)
	}
	switch {
	case granted:
		s.activate(t)
	case blocker.state == stateDone:
		// Blocker finished during lock processing: the denial stands
		// (and was paid for), but the release is already due.
		s.lockDenials++
		s.releaseOne[0] = t
		s.requeueReleased(s.releaseOne[:])
		s.releaseOne[0] = nil
	default:
		t.state = stateBlocked
		if blocker.blocked == nil {
			if n := len(s.blockedFree) - 1; n >= 0 {
				blocker.blocked = s.blockedFree[n]
				s.blockedFree[n] = nil
				s.blockedFree = s.blockedFree[:n]
			}
		}
		blocker.blocked = append(blocker.blocked, t)
		s.lockDenials++
	}
	s.tryDispatch()
}

// activate splits t into sub-transactions and sends each on one visit
// to its processor.
func (s *simulation) activate(t *txn) {
	t.state = stateActive
	s.touchActiveArea()
	s.active = append(s.active, t)

	procs := partition.Assign(s.p.Partitioning, s.p.NPros, s.srcProcs)
	shares := partition.SpreadEntities(t.spec.Entities, len(procs))
	// Counting while submitting is safe: a server never runs a job's
	// Done inside Submit, so no visit can reach the barrier early.
	done := func() { s.subDone(t) }
	for i, proc := range procs {
		if n := shares[i]; n > 0 {
			t.visitsLeft++
			s.visit(proc, server.WorkClass, float64(n)*s.p.IOTime, float64(n)*s.p.CPUTime, done)
		}
	}
}

// subDone joins one sub-transaction at the fork-join barrier.
func (s *simulation) subDone(t *txn) {
	t.visitsLeft--
	if t.visitsLeft == 0 {
		s.complete(t)
	}
}

// complete finishes t: record response time, release its locks and its
// blocked set, and inject the replacement transaction that keeps the
// population closed.
func (s *simulation) complete(t *txn) {
	t.state = stateDone
	s.touchActiveArea()
	for i, a := range s.active {
		if a == t {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.completed++
	response := s.eng.Now() - t.arrival
	s.respSum += response
	s.entitiesDone += t.spec.Entities
	if s.obs != nil {
		s.obs.Observe(trace.Event{Kind: trace.EventComplete, At: s.eng.Now(), Txn: t.id,
			Response: response, Class: t.spec.Class})
	}

	if t.blocked != nil {
		s.requeueReleased(t.blocked)
		// Recycle the release set's backing array for the next blocker.
		for i := range t.blocked {
			t.blocked[i] = nil
		}
		s.blockedFree = append(s.blockedFree, t.blocked[:0])
		t.blocked = nil
	}
	s.arrive(s.newTxn()) // replacement keeps ntrans constant
	s.tryDispatch()
}

// requeueReleased returns released transactions to the pending queue in
// their blocking order — at the head by default (they have waited
// longest) or at the tail under the ReleasedToTail ablation.
func (s *simulation) requeueReleased(ts []*txn) {
	for _, t := range ts {
		t.state = statePending
	}
	if s.p.ReleasedToTail {
		for _, t := range ts {
			s.pending.PushTail(t)
		}
	} else {
		// Head insertion in reverse keeps ts's internal order: ts[0]
		// dispatches first, ahead of everything previously pending.
		for i := len(ts) - 1; i >= 0; i-- {
			s.pending.PushHead(ts[i])
		}
	}
	s.tryDispatch()
}

// touchActiveArea brings the ∫|active|dt accumulator current before the
// active set changes.
func (s *simulation) touchActiveArea() {
	now := s.eng.Now()
	s.activeArea += float64(len(s.active)) * (now - s.activeStamp)
	s.activeStamp = now
}

// metrics assembles the output parameters over the measurement window
// (Warmup, TMax].
func (s *simulation) metrics() Metrics {
	s.touchActiveArea()
	horizon := s.p.TMax - s.p.Warmup
	var m Metrics
	for i := 0; i < s.p.NPros; i++ {
		m.TotCPUs += s.cpus[i].TotalBusy()
		m.TotIOs += s.disks[i].TotalBusy()
		m.LockCPUs += s.cpus[i].Busy(server.LockClass)
		m.LockIOs += s.disks[i].Busy(server.LockClass)
	}
	m.TotCPUs -= s.base.totCPUs
	m.TotIOs -= s.base.totIOs
	m.LockCPUs -= s.base.lockCPUs
	m.LockIOs -= s.base.lockIOs
	m.UsefulCPUs = (m.TotCPUs - m.LockCPUs) / float64(s.p.NPros)
	m.UsefulIOs = (m.TotIOs - m.LockIOs) / float64(s.p.NPros)
	m.TotCom = s.completed - s.base.completed
	m.Throughput = float64(m.TotCom) / horizon
	if m.TotCom > 0 {
		m.MeanResponse = (s.respSum - s.base.respSum) / float64(m.TotCom)
	}
	m.LockRequests = s.lockRequests - s.base.lockRequests
	m.LockDenials = s.lockDenials - s.base.lockDenials
	if m.LockRequests > 0 {
		m.DenialRate = float64(m.LockDenials) / float64(m.LockRequests)
	}
	m.MeanActive = (s.activeArea - s.base.activeArea) / horizon
	m.CompletedEntities = s.entitiesDone - s.base.entitiesDone
	m.Events = s.eng.Steps()
	return m
}
