package model

import (
	"math"
	"testing"

	"granulock/internal/partition"
	"granulock/internal/race"
	"granulock/internal/sched"
	"granulock/internal/server"
	"granulock/internal/workload"
)

// base returns the paper's Table 1 configuration (see DESIGN.md §3) with
// a shortened horizon for test speed.
func base() Params {
	return Params{
		DBSize:       5000,
		Ltot:         100,
		NTrans:       10,
		MaxTransize:  500,
		CPUTime:      0.05,
		IOTime:       0.2,
		LockCPUTime:  0.01,
		LockIOTime:   0.2,
		NPros:        10,
		TMax:         500,
		Partitioning: partition.Horizontal,
		Placement:    workload.PlacementBest,
		Seed:         1,
	}
}

func run(t *testing.T, p Params) Metrics {
	t.Helper()
	m, err := Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestValidation(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"dbsize", func(p *Params) { p.DBSize = 0 }},
		{"ltot low", func(p *Params) { p.Ltot = 0 }},
		{"ltot high", func(p *Params) { p.Ltot = p.DBSize + 1 }},
		{"ntrans", func(p *Params) { p.NTrans = 0 }},
		{"npros", func(p *Params) { p.NPros = 0 }},
		{"tmax", func(p *Params) { p.TMax = 0 }},
		{"negative time", func(p *Params) { p.IOTime = -1 }},
		{"all zero times", func(p *Params) { p.CPUTime, p.IOTime, p.LockCPUTime, p.LockIOTime = 0, 0, 0, 0 }},
		{"maxtransize", func(p *Params) { p.MaxTransize = 0 }},
		{"maxtransize high", func(p *Params) { p.MaxTransize = p.DBSize + 1 }},
		{"partitioning", func(p *Params) { p.Partitioning = partition.Strategy(9) }},
		{"placement", func(p *Params) { p.Placement = workload.Placement(9) }},
	}
	for _, m := range mutations {
		p := base()
		m.mut(&p)
		if _, err := Run(p); err == nil {
			t.Errorf("%s: invalid params accepted", m.name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, base())
	b := run(t, base())
	if a != b {
		t.Fatalf("runs with identical params diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedMatters(t *testing.T) {
	p := base()
	a := run(t, p)
	p.Seed = 2
	b := run(t, p)
	if a == b {
		t.Fatal("different seeds produced identical metrics")
	}
}

func TestProgressAndBasicInvariants(t *testing.T) {
	m := run(t, base())
	if m.TotCom <= 0 {
		t.Fatal("no transactions completed")
	}
	if m.Throughput != float64(m.TotCom)/base().TMax {
		t.Fatal("throughput definition violated")
	}
	if m.MeanResponse <= 0 {
		t.Fatal("non-positive response time")
	}
	if m.LockRequests < m.TotCom {
		t.Fatal("fewer lock requests than completions")
	}
	if m.LockDenials > m.LockRequests {
		t.Fatal("more denials than requests")
	}
	if m.DenialRate < 0 || m.DenialRate > 1 {
		t.Fatalf("denial rate %v", m.DenialRate)
	}
	if m.MeanActive < 0 || m.MeanActive > float64(base().NTrans) {
		t.Fatalf("mean active %v outside [0, ntrans]", m.MeanActive)
	}
}

func TestResourceAccountingBounds(t *testing.T) {
	p := base()
	m := run(t, p)
	maxBusy := float64(p.NPros) * p.TMax
	if m.TotCPUs < 0 || m.TotCPUs > maxBusy+1e-6 {
		t.Fatalf("totcpus %v outside [0, %v]", m.TotCPUs, maxBusy)
	}
	if m.TotIOs < 0 || m.TotIOs > maxBusy+1e-6 {
		t.Fatalf("totios %v outside [0, %v]", m.TotIOs, maxBusy)
	}
	if m.LockCPUs > m.TotCPUs+1e-9 || m.LockIOs > m.TotIOs+1e-9 {
		t.Fatal("lock busy time exceeds total busy time")
	}
	if math.Abs(m.UsefulCPUs-(m.TotCPUs-m.LockCPUs)/float64(p.NPros)) > 1e-9 {
		t.Fatal("usefulcpus definition violated")
	}
	if math.Abs(m.UsefulIOs-(m.TotIOs-m.LockIOs)/float64(p.NPros)) > 1e-9 {
		t.Fatal("usefulios definition violated")
	}
}

func TestWorkConservation(t *testing.T) {
	// Useful I/O busy time must cover at least the entities of completed
	// transactions and at most completed plus the in-flight population.
	p := base()
	m := run(t, p)
	useful := m.TotIOs - m.LockIOs
	lower := float64(m.CompletedEntities) * p.IOTime
	upper := float64(m.CompletedEntities+p.NTrans*p.MaxTransize) * p.IOTime
	if useful < lower-1e-6 || useful > upper+1e-6 {
		t.Fatalf("useful I/O %v outside [%v, %v]", useful, lower, upper)
	}
}

func TestWholeDatabaseLockSerializes(t *testing.T) {
	// ltot=1: "transactions are forced to run in a serial order", so the
	// attained concurrency never exceeds one active transaction.
	p := base()
	p.Ltot = 1
	m := run(t, p)
	if m.MeanActive > 1.0+1e-9 {
		t.Fatalf("mean active %v > 1 under whole-database locking", m.MeanActive)
	}
	if m.TotCom == 0 {
		t.Fatal("no progress under whole-database locking")
	}
}

func TestFinerGranularityRaisesConcurrency(t *testing.T) {
	p := base()
	p.Ltot = 1
	coarse := run(t, p)
	p.Ltot = 100
	fine := run(t, p)
	if fine.MeanActive <= coarse.MeanActive {
		t.Fatalf("mean active did not rise with granularity: %v (ltot=1) vs %v (ltot=100)",
			coarse.MeanActive, fine.MeanActive)
	}
}

func TestThroughputConvexInLtot(t *testing.T) {
	// The paper's headline: throughput rises from ltot=1 to a moderate
	// optimum, then falls by ltot=dbsize under lock overhead.
	p := base()
	p.TMax = 1000
	p.Ltot = 1
	coarse := run(t, p)
	p.Ltot = 50
	mid := run(t, p)
	p.Ltot = 5000
	fine := run(t, p)
	if mid.Throughput <= coarse.Throughput {
		t.Fatalf("moderate granularity (%v) not better than whole-db lock (%v)",
			mid.Throughput, coarse.Throughput)
	}
	if mid.Throughput <= fine.Throughput {
		t.Fatalf("moderate granularity (%v) not better than entity-level locks (%v)",
			mid.Throughput, fine.Throughput)
	}
}

func TestMoreProcessorsMoreThroughput(t *testing.T) {
	p := base()
	p.TMax = 1000
	p.NPros = 1
	one := run(t, p)
	p.NPros = 10
	ten := run(t, p)
	if ten.Throughput <= one.Throughput {
		t.Fatalf("throughput did not scale with processors: %v (1) vs %v (10)",
			one.Throughput, ten.Throughput)
	}
	if ten.MeanResponse >= one.MeanResponse {
		t.Fatalf("response time did not fall with processors: %v (1) vs %v (10)",
			one.MeanResponse, ten.MeanResponse)
	}
}

func TestLockOverheadGrowsWithFineGranularity(t *testing.T) {
	// Past the optimum each transaction requests many more locks.
	p := base()
	p.Ltot = 100
	low := run(t, p)
	p.Ltot = 5000
	high := run(t, p)
	lowOverhead := low.LockIOs / float64(low.LockRequests)
	highOverhead := high.LockIOs / float64(high.LockRequests)
	if highOverhead <= lowOverhead {
		t.Fatalf("per-request lock overhead did not grow: %v vs %v", lowOverhead, highOverhead)
	}
}

func TestZeroLockIOTimeMeansNoLockIO(t *testing.T) {
	p := base()
	p.LockIOTime = 0 // main-memory lock table (§3.3)
	m := run(t, p)
	if m.LockIOs != 0 {
		t.Fatalf("lock I/O %v with liotime=0", m.LockIOs)
	}
	if m.LockCPUs <= 0 {
		t.Fatal("no lock CPU despite lcputime > 0")
	}
}

func TestRandomPartitioningRuns(t *testing.T) {
	p := base()
	p.Partitioning = partition.Random
	m := run(t, p)
	if m.TotCom == 0 {
		t.Fatal("no progress under random partitioning")
	}
}

func TestHorizontalBeatsRandomPartitioning(t *testing.T) {
	// Paper §3.4: horizontal partitioning yields better performance.
	p := base()
	p.TMax = 2000
	h := run(t, p)
	p.Partitioning = partition.Random
	r := run(t, p)
	if h.Throughput <= r.Throughput {
		t.Fatalf("horizontal (%v) not better than random (%v) partitioning",
			h.Throughput, r.Throughput)
	}
}

func TestPlacementOrderingAtFineGranularity(t *testing.T) {
	// At intermediate granularity worst placement demands far more locks
	// per transaction than best placement, depressing throughput (§3.5).
	// (At ltot=dbsize the strategies coincide by definition.)
	p := base()
	p.Ltot = 500
	p.TMax = 1000
	pBest := p
	pBest.Placement = workload.PlacementBest
	best := run(t, pBest)
	pWorst := p
	pWorst.Placement = workload.PlacementWorst
	worst := run(t, pWorst)
	if best.Throughput <= worst.Throughput {
		t.Fatalf("best placement (%v) not better than worst (%v) at fine granularity",
			best.Throughput, worst.Throughput)
	}
}

func TestMixedClassesRun(t *testing.T) {
	p := base()
	p.Classes = workload.SmallLargeMix(50, 500, 0.8)
	p.MaxTransize = 0 // must be ignored when Classes present
	m := run(t, p)
	if m.TotCom == 0 {
		t.Fatal("no progress with mixed classes")
	}
}

func TestSmallTransactionsHigherThroughput(t *testing.T) {
	// §3.2: smaller transactions increase throughput substantially.
	p := base()
	p.TMax = 1000
	large := run(t, p)
	p.MaxTransize = 50
	small := run(t, p)
	if small.Throughput <= large.Throughput {
		t.Fatalf("small transactions (%v) not faster than large (%v)",
			small.Throughput, large.Throughput)
	}
}

func TestFixedMPLCapsConcurrency(t *testing.T) {
	p := base()
	p.Scheduler = sched.FixedMPL{Limit: 2}
	m := run(t, p)
	if m.MeanActive > 2+1e-9 {
		t.Fatalf("mean active %v exceeds MPL limit 2", m.MeanActive)
	}
	if m.TotCom == 0 {
		t.Fatal("no progress under MPL limit")
	}
}

func TestAdaptiveSchedulerRuns(t *testing.T) {
	p := base()
	pol, err := sched.NewAdaptiveMPL(1, p.NTrans, 20, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p.Scheduler = pol
	m := run(t, p)
	if m.TotCom == 0 {
		t.Fatal("no progress under adaptive scheduling")
	}
}

func TestReleasedToTailAblationRuns(t *testing.T) {
	p := base()
	p.Ltot = 5 // plenty of blocking
	head := run(t, p)
	p.ReleasedToTail = true
	tail := run(t, p)
	if head.TotCom == 0 || tail.TotCom == 0 {
		t.Fatal("requeue ablation stalled")
	}
}

func TestDedicatedLockProcessorAblation(t *testing.T) {
	p := base()
	p.TMax = 1000
	shared := run(t, p)
	p.DedicatedLockProcessor = true
	dedicated := run(t, p)
	if dedicated.TotCom == 0 {
		t.Fatal("no progress with dedicated lock processor")
	}
	// Sharing lock work across processors must not be worse than
	// funnelling it through one processor.
	if shared.Throughput < dedicated.Throughput*0.95 {
		t.Fatalf("shared lock work (%v) much worse than dedicated (%v)",
			shared.Throughput, dedicated.Throughput)
	}
}

func TestUniprocessorMatchesRiesStonebrakerShape(t *testing.T) {
	// npros=1 is the uniprocessor model of refs [8,9]: coarse
	// granularity should be about as good as the optimum (flat region),
	// and very fine granularity clearly worse.
	p := base()
	p.NPros = 1
	p.TMax = 2000
	p.Ltot = 1
	coarse := run(t, p)
	p.Ltot = 5000
	fine := run(t, p)
	if coarse.Throughput <= fine.Throughput {
		t.Fatalf("uniprocessor: coarse (%v) not better than entity-level (%v)",
			coarse.Throughput, fine.Throughput)
	}
}

func TestManyTransactionsFineGranularityCollapses(t *testing.T) {
	// §3.7: with ntrans large, entity-level locking loses to coarse
	// granularity because lock overhead scales with both ntrans and ltot.
	p := base()
	p.NTrans = 200
	p.NPros = 20
	p.TMax = 1000
	p.Ltot = 10
	coarse := run(t, p)
	p.Ltot = 5000
	fine := run(t, p)
	if fine.Throughput >= coarse.Throughput {
		t.Fatalf("heavy load: fine granularity (%v) should collapse below coarse (%v)",
			fine.Throughput, coarse.Throughput)
	}
}

func TestAccessSkewRaisesConflicts(t *testing.T) {
	p := base()
	p.TMax = 1000
	uniform := run(t, p)
	p.AccessSkew = 0.9
	skewed := run(t, p)
	if skewed.DenialRate <= uniform.DenialRate {
		t.Fatalf("skew denial rate %v not above uniform %v", skewed.DenialRate, uniform.DenialRate)
	}
	if skewed.Throughput >= uniform.Throughput {
		t.Fatalf("skew throughput %v not below uniform %v", skewed.Throughput, uniform.Throughput)
	}
}

func TestAccessSkewValidation(t *testing.T) {
	p := base()
	p.AccessSkew = -0.1
	if _, err := Run(p); err == nil {
		t.Fatal("negative skew accepted")
	}
	p.AccessSkew = 1
	if _, err := Run(p); err == nil {
		t.Fatal("skew=1 accepted")
	}
}

func TestSJFDisciplineRuns(t *testing.T) {
	p := base()
	p.Discipline = server.SJF
	m := run(t, p)
	if m.TotCom == 0 {
		t.Fatal("no progress under SJF")
	}
	p.Discipline = server.Discipline(9)
	if _, err := Run(p); err == nil {
		t.Fatal("invalid discipline accepted")
	}
}

func TestSingleTransactionNoConflicts(t *testing.T) {
	p := base()
	p.NTrans = 1
	m := run(t, p)
	if m.LockDenials != 0 {
		t.Fatalf("%d denials with a single transaction", m.LockDenials)
	}
	if m.MeanActive > 1 {
		t.Fatalf("mean active %v with one transaction", m.MeanActive)
	}
}

func TestTimingSemanticsExactSingleTransaction(t *testing.T) {
	// With one transaction of exactly one entity there is no queueing
	// and no conflict, so the cycle time is computable by hand:
	//   lock I/O + lock CPU, shared by npros processors in parallel
	//   but chained disk->CPU on each:   (liotime + lcputime)/npros
	//   then the single-entity sub-transaction on one processor:
	//   iotime + cputime
	// The completion count must match tmax divided by that cycle.
	p := base()
	p.NTrans = 1
	p.MaxTransize = 1
	p.NPros = 10
	p.TMax = 1000
	m := run(t, p)
	cycle := (p.LockIOTime+p.LockCPUTime)/float64(p.NPros) + p.IOTime + p.CPUTime
	want := int((p.TMax - 0) / cycle) // arrival at t=0
	if m.TotCom < want-1 || m.TotCom > want+1 {
		t.Fatalf("totcom %d, want %d±1 (cycle %v)", m.TotCom, want, cycle)
	}
	// Response time equals the cycle (no waiting anywhere).
	if math.Abs(m.MeanResponse-cycle) > 1e-9 {
		t.Fatalf("response %v, want exactly %v", m.MeanResponse, cycle)
	}
	// Lock busy time: one request per completion(+in flight), each
	// costing liotime of disk across the system.
	wantLockIO := float64(m.LockRequests) * p.LockIOTime
	if math.Abs(m.LockIOs-wantLockIO) > p.LockIOTime {
		t.Fatalf("lockios %v, want about %v", m.LockIOs, wantLockIO)
	}
}

func TestTimingSemanticsUniprocessor(t *testing.T) {
	// Same idea on one processor: cycle = liotime + lcputime + iotime +
	// cputime, all serialized.
	p := base()
	p.NTrans = 1
	p.MaxTransize = 1
	p.NPros = 1
	p.TMax = 500
	m := run(t, p)
	cycle := p.LockIOTime + p.LockCPUTime + p.IOTime + p.CPUTime
	want := int(p.TMax / cycle)
	if m.TotCom < want-1 || m.TotCom > want+1 {
		t.Fatalf("totcom %d, want %d±1", m.TotCom, want)
	}
}

func TestTinyDatabase(t *testing.T) {
	p := base()
	p.DBSize = 2
	p.Ltot = 2
	p.MaxTransize = 2
	m := run(t, p)
	if m.TotCom == 0 {
		t.Fatal("tiny database made no progress")
	}
}

func BenchmarkRunBase(b *testing.B) {
	p := base()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunBaseAllocs bounds what one base() run allocates. A processor
// visit costs one job and one closure, an arrival one txn and an
// activation its two partition slices; a closure per server start, a
// slice per preemption or a second job per visit pushes the count past
// the bound. Measured under AllocsPerRun: 20,728 allocations per run
// when each visit built a disk job and a CPU job with a closure apiece
// and the servers allocated on every start and preemption, 6,024 with
// one job per visit, 5,873 since a lock request counts its shares on
// the txn instead of in a heap counter, and 5,867 since the conflict
// draw reads the active set instead of a snapshot slice it grew, so
// the bound leaves over a quarter of headroom.
func TestRunBaseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	const bound = 8000
	p := base()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("one base() run allocates %.0f objects, bound %d", allocs, bound)
	}
}
