// The lockmgr benchmark suite: in-process cost of an acquire/release
// pair through lockmgr.Table with the lock-free fast path enabled vs
// force-disabled (every operation under the table's latch). The headline
// comparison — uncontended single-granule claim, fast vs latched —
// carries a ≥ 1.5× floor: the lowest of 23 quick runs on a 2-vCPU host
// (1.58–2.37×, median 1.89×), rounded down to a tenth, once the latched
// path it divides by had lost its stripes and cost ~200 ns against the
// fast side's ~110. A 16-granule conservative claim — the paper's
// transaction shape, granted by a batch of CASes under the latch —
// carries a floor of its own (≥ 3×). Every fast uncontended cycle has a
// zero-allocation budget. A contended shared pool is reported at
// GOMAXPROCS 1, 2 and 4 to show contended throughput degrades gracefully
// rather than collapsing, at each core count.
//
// Honesty notes: every entry records the GOMAXPROCS it ran at (on one
// CPU the contended scenario measures handoff cost, not parallelism,
// and 4 oversubscribes a 2-CPU host), and every fast run is checked
// against the table's own counters — an entry is only reported as
// "fast" if the fast path actually granted during it.
package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"granulock/internal/lockmgr"
)

// lmScenario describes one lockmgr microbenchmark configuration.
type lmScenario struct {
	name     string
	fast     bool // lock-free fast path enabled
	granules int  // granules per claim; 0 = incremental single-granule step
	pool     int  // >0: contended RunParallel workload over a shared pool
	procs    int  // >0: GOMAXPROCS for the run; 0 keeps the process's
}

// lmWorkingSet is the number of distinct granules an uncontended
// scenario cycles through — large enough to defeat any single-granule
// special case, small enough to stay cache-resident like a real hot set.
const lmWorkingSet = 512

// lmTable builds the scenario's table.
func lmTable(sc lmScenario) *lockmgr.Table {
	return lockmgr.NewTable(lockmgr.WithFastPath(sc.fast))
}

// lmWarm claims and releases every granule the scenario will touch
// once, so first-touch work (map entry creation, fast-index promotion)
// happens before the timer, for fast and slow tables alike. The fast
// path grants only on granules already promoted into the table's fast
// index, which happens on the first fully-released GC pass.
func lmWarm(table *lockmgr.Table, granules int) error {
	ctx := context.Background()
	span := lmWorkingSet * max(granules, 1)
	for g := 0; g < span; g++ {
		txn := lockmgr.TxnID(txnSeq.Add(1))
		reqs := []lockmgr.Request{{Granule: lockmgr.Granule(g), Mode: lockmgr.ModeExclusive}}
		if err := table.AcquireAll(ctx, txn, reqs); err != nil {
			return err
		}
		table.ReleaseAll(txn)
	}
	return nil
}

// lmPairBench measures one uncontended acquire/release pair: a
// conservative claim of sc.granules granules, or an incremental step
// when sc.granules is 0. Every iteration is a fresh transaction over a
// cycling working set, so each pair pays full first-acquisition cost —
// no re-acquire shortcuts.
func lmPairBench(sc lmScenario) (entry, error) {
	table := lmTable(sc)
	ctx := context.Background()
	var failure error
	r := testing.Benchmark(func(b *testing.B) {
		if err := lmWarm(table, sc.granules); err != nil {
			failure = err
			b.Fatal(err)
		}
		b.ReportAllocs()
		if sc.granules == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := lockmgr.TxnID(txnSeq.Add(1))
				g := lockmgr.Granule(i % lmWorkingSet)
				if err := table.Acquire(ctx, txn, g, lockmgr.ModeExclusive); err != nil {
					failure = err
					b.Fatal(err)
				}
				table.ReleaseAll(txn)
			}
			return
		}
		reqs := make([]lockmgr.Request, sc.granules)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn := lockmgr.TxnID(txnSeq.Add(1))
			for j := range reqs {
				reqs[j] = lockmgr.Request{Granule: lockmgr.Granule((i%lmWorkingSet)*sc.granules + j), Mode: lockmgr.ModeExclusive}
			}
			if err := table.AcquireAll(ctx, txn, reqs); err != nil {
				failure = err
				b.Fatal(err)
			}
			table.ReleaseAll(txn)
		}
	})
	if failure != nil {
		return entry{}, failure
	}
	return lmRecord(sc, table, r)
}

// lmContendedBench measures the table under goroutine contention on a
// small shared pool of exclusively-locked granules — the regime where
// the fast path's CAS keeps failing and the adaptive spin-then-park
// discipline takes over.
func lmContendedBench(sc lmScenario) (entry, error) {
	table := lmTable(sc)
	ctx := context.Background()
	var failure error
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.procs))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				txn := lockmgr.TxnID(txnSeq.Add(1))
				g := lockmgr.Granule(int(txn*7) % sc.pool)
				if err := table.AcquireAll(ctx, txn, []lockmgr.Request{{Granule: g, Mode: lockmgr.ModeExclusive}}); err != nil {
					failure = err
					b.Error(err)
					return
				}
				table.ReleaseAll(txn)
			}
		})
	})
	if failure != nil {
		return entry{}, failure
	}
	return lmRecord(sc, table, r)
}

// lmRecord converts a benchmark result into a report entry, after
// checking the table's own counters agree with the scenario label: a
// "fast" entry must have fast-path grants, a "slow" entry must have
// none. A silent misconfiguration here would make the headline ratio a
// comparison of the slow path against itself.
func lmRecord(sc lmScenario, table *lockmgr.Table, r testing.BenchmarkResult) (entry, error) {
	fs := table.FastStats()
	if sc.fast && sc.pool == 0 && fs.Grants == 0 {
		return entry{}, fmt.Errorf("fast path enabled but granted nothing (fallbacks=%d)", fs.Fallbacks)
	}
	// The uncontended fast cycle, of one granule or a batch, is
	// allocation-free by design.
	if sc.fast && sc.pool == 0 && r.AllocsPerOp() > 0 {
		return entry{}, fmt.Errorf("%d allocs per claim+release, budget is 0", r.AllocsPerOp())
	}
	if !sc.fast && (fs.Grants != 0 || fs.Releases != 0) {
		return entry{}, fmt.Errorf("fast path disabled but counted %d grants / %d releases", fs.Grants, fs.Releases)
	}
	ns := float64(r.NsPerOp())
	return entry{
		Procs:       runtime.GOMAXPROCS(0),
		Pool:        sc.pool,
		Fast:        sc.fast,
		Ops:         int64(r.N),
		NsPerOp:     ns,
		OpsPerSec:   1e9 / ns,
		AllocsPerOp: float64(r.AllocsPerOp()),
	}, nil
}

// runLockmgr fills rep with the lockmgr fast-path suite. The workload is
// iteration-scaled by the benchmark harness, so -quick changes nothing
// about the measurement itself; the flag is still recorded so -compare
// can tell a CI smoke report from the checked-in full run and fall back
// to machine-independent ratio comparison.
func runLockmgr(rep *report) error {
	scenarios := []lmScenario{
		{name: "lockmgr/claim-1g/fast", fast: true, granules: 1},
		{name: "lockmgr/claim-1g/slow", fast: false, granules: 1},
		{name: "lockmgr/step-1g/fast", fast: true, granules: 0},
		{name: "lockmgr/step-1g/slow", fast: false, granules: 0},
		{name: "lockmgr/claim-16g/fast", fast: true, granules: 16},
		{name: "lockmgr/claim-16g/slow", fast: false, granules: 16},
		{name: "lockmgr/contended/fast/procs=1", fast: true, pool: 16, procs: 1},
		{name: "lockmgr/contended/slow/procs=1", fast: false, pool: 16, procs: 1},
		{name: "lockmgr/contended/fast/procs=2", fast: true, pool: 16, procs: 2},
		{name: "lockmgr/contended/slow/procs=2", fast: false, pool: 16, procs: 2},
		{name: "lockmgr/contended/fast/procs=4", fast: true, pool: 16, procs: 4},
		{name: "lockmgr/contended/slow/procs=4", fast: false, pool: 16, procs: 4},
	}
	for _, sc := range scenarios {
		bench := lmPairBench
		if sc.pool > 0 {
			bench = lmContendedBench
		}
		if err := rep.add(sc.name, func() (entry, error) { return bench(sc) }); err != nil {
			return err
		}
	}

	// The oversubscribed contended pair (4 procs on the 2-CPU reference
	// host) is recorded but not compared: its ratio read 1.2–2.3× from
	// run to run, too wide for -compare's 25% tolerance.
	for _, c := range []struct {
		name, num, den string
		target         float64
	}{
		{"fast path, uncontended claim (fast vs latched, headline)",
			"lockmgr/claim-1g/fast", "lockmgr/claim-1g/slow", 1.5},
		{"fast path, uncontended incremental step",
			"lockmgr/step-1g/fast", "lockmgr/step-1g/slow", 0},
		{"16-granule claim (batch CAS vs latched map)",
			"lockmgr/claim-16g/fast", "lockmgr/claim-16g/slow", 3},
		{"contended shared pool, procs=1 (graceful degradation)",
			"lockmgr/contended/fast/procs=1", "lockmgr/contended/slow/procs=1", 0},
		{"contended shared pool, procs=2 (graceful degradation)",
			"lockmgr/contended/fast/procs=2", "lockmgr/contended/slow/procs=2", 0},
	} {
		if err := rep.compare(c.name, c.num, c.den, c.target); err != nil {
			return err
		}
	}
	return nil
}
