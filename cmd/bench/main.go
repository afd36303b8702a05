// Command bench regenerates the repository's performance-trajectory
// files: machine-readable throughput and allocation numbers, each
// compared against a recorded baseline. It has two suites:
//
//	go run ./cmd/bench -suite model   -out BENCH_model.json
//	go run ./cmd/bench -suite locksrv -out BENCH_locksrv.json
//	go run ./cmd/bench -suite lockmgr -out BENCH_lockmgr.json
//	go run ./cmd/bench -suite engine  -out BENCH_engine.json
//	go run ./cmd/bench -suite wal     -out BENCH_wal.json
//
// The model suite measures the simulation engine and two representative
// figure sweeps. The locksrv suite measures the network lock service —
// serial vs pipelined vs batched use of a connection, lock table
// sharded vs not, plus the partitioned cluster's 1/2/4-node scaling
// curve over a fixed-RTT transport — and lockmgr microbenchmarks (see
// locksrv.go and cluster.go). The
// lockmgr suite measures the in-process lock table with the lock-free
// fast path enabled vs force-disabled (see lockmgr.go). The engine
// suite measures end-to-end transaction throughput of the executable
// engine under every registered concurrency-control protocol (see
// engine.go); -protocol restricts it to one protocol, -protocol list
// prints the registry. The wal suite measures group commit against a
// per-commit-sync baseline over a fixed-latency sync model, plus
// snapshot-bounded vs full-history recovery on real file-backed logs
// (see wal.go).
//
// The -quick flag shortens the workloads for CI smoke runs; -compare
// OLD.json re-reads a previous report and exits nonzero if any
// benchmark's throughput regressed by more than 10%. When the two
// reports disagree on the quick flag (a CI smoke run diffed against a
// checked-in full run from a different machine), absolute throughput
// is not comparable; the diff falls back to the reports' recorded
// speedup ratios, which are machine-independent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"granulock/internal/experiments"
	"granulock/internal/sim"
)

// baseline holds the pre-change numbers a benchmark is compared against.
type baseline struct {
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// entry is one benchmark's record in BENCH_model.json.
type entry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	EventsPerOp  float64 `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Baseline is the same benchmark measured on the pre-optimization
	// engine (commit 193eeab, interface-heap + per-event allocation),
	// kept in-file so every future report carries its own yardstick.
	Baseline *baseline `json:"baseline,omitempty"`
	// SpeedupEventsPerSec is events_per_sec / baseline events_per_sec.
	SpeedupEventsPerSec float64 `json:"speedup_events_per_sec,omitempty"`
	// AllocsReduction is 1 - allocs_per_op / baseline allocs_per_op.
	AllocsReduction float64 `json:"allocs_reduction,omitempty"`
}

// report is the top-level BENCH_model.json document.
type report struct {
	Schema     string  `json:"schema"`
	Generated  string  `json:"generated"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Quick      bool    `json:"quick"`
	Benchmarks []entry `json:"benchmarks"`
}

// Pre-optimization numbers, measured on this machine class at the seed
// commit with the identical benchmark bodies (see DESIGN.md §1).
var baselines = map[string]baseline{
	"sim.Engine/churn":        {NsPerOp: 233.4, BytesPerOp: 32, AllocsPerOp: 1},
	"sim.Engine/cancel-churn": {NsPerOp: 375.7, BytesPerOp: 64, AllocsPerOp: 2},
	"experiments/fig2":        {NsPerOp: 306427550, BytesPerOp: 93573408, AllocsPerOp: 3171690},
	"experiments/fig9":        {NsPerOp: 436971176, BytesPerOp: 188574224, AllocsPerOp: 6478481},
}

// churnDelay mirrors the deterministic LCG of the in-package benchmark.
type churnDelay uint64

func (c *churnDelay) next() float64 {
	*c = *c*6364136223846793005 + 1442695040888963407
	return float64(uint64(*c)>>40)/float64(1<<24) + 1e-9
}

// engineChurn is the raw event-loop benchmark: a standing population
// where every fired event schedules one replacement — one schedule plus
// one dispatch per iteration.
func engineChurn(b *testing.B) {
	var e sim.Engine
	var rng churnDelay = 1
	var fn func()
	fn = func() { e.After(rng.next(), fn) }
	for i := 0; i < 1024; i++ {
		e.At(rng.next(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// engineCancelChurn exercises the cancel path: two schedules, one
// cancel, one dispatch per iteration.
func engineCancelChurn(b *testing.B) {
	var e sim.Engine
	var rng churnDelay = 1
	nop := func() {}
	for i := 0; i < 512; i++ {
		e.At(rng.next(), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.next(), nop)
		e.Cancel(e.After(rng.next(), nop))
		e.Step()
	}
}

// figureSeed hands every figure-bench iteration a fresh seed so the
// cross-sweep cell cache can never serve a previous iteration's results
// and the measurement stays a measurement of simulation speed.
var figureSeed atomic.Uint64

// figureBench measures one full figure sweep per iteration and returns
// the benchmark result plus the mean number of simulator events behind
// one sweep.
func figureBench(id string, tmax float64) (testing.BenchmarkResult, float64, error) {
	var events, iters uint64
	var failure error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := experiments.Options{TMax: tmax, Seed: figureSeed.Add(1), Replications: 1, Parallelism: runtime.GOMAXPROCS(0)}
			f, err := experiments.Run(id, o)
			if err != nil {
				failure = err
				b.Fatal(err)
			}
			// Panels share their Series slices; panel 0 covers the sweep.
			for _, s := range f.Panels[0].Series {
				for _, pt := range s.Points {
					events += pt.M.Events
				}
			}
			iters++
		}
	})
	if failure != nil {
		return r, 0, failure
	}
	return r, float64(events) / float64(iters), nil
}

// record converts a benchmark result into a report entry, attaching the
// baseline comparison when one is on file. Baseline events/sec is
// derived from the measured events/op: the model is bit-deterministic
// per seed, so the event count behind an operation is identical across
// engine generations and only the wall time differs.
func record(name string, r testing.BenchmarkResult, eventsPerOp float64) entry {
	ns := float64(r.NsPerOp())
	e := entry{
		Name:         name,
		NsPerOp:      ns,
		BytesPerOp:   float64(r.AllocedBytesPerOp()),
		AllocsPerOp:  float64(r.AllocsPerOp()),
		EventsPerOp:  eventsPerOp,
		EventsPerSec: eventsPerOp / ns * 1e9,
	}
	if b, ok := baselines[name]; ok {
		b.EventsPerSec = eventsPerOp / b.NsPerOp * 1e9
		e.Baseline = &b
		e.SpeedupEventsPerSec = e.EventsPerSec / b.EventsPerSec
		if b.AllocsPerOp > 0 {
			e.AllocsReduction = 1 - e.AllocsPerOp/b.AllocsPerOp
		}
	}
	return e
}

func main() {
	suite := flag.String("suite", "model", "benchmark suite: model, locksrv, lockmgr, engine or wal")
	out := flag.String("out", "", "output path (default BENCH_<suite>.json)")
	quick := flag.Bool("quick", false, "shorten workloads for CI smoke runs")
	compare := flag.String("compare", "", "previous report to diff against; exit nonzero on >10% throughput regression")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the suite run")
	only := flag.String("run", "", "only run benchmarks whose name contains this substring (locksrv suite; skips comparisons)")
	protocol := flag.String("protocol", "", "engine suite: run only this concurrency-control protocol; \"list\" prints the registry")
	flag.Parse()
	benchFilter = *only
	if err := resolveProtocolFlag(protocol); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}

	var data []byte
	var err error
	switch *suite {
	case "model":
		data, err = runModel(*quick)
	case "locksrv":
		data, err = runLocksrv(*quick)
	case "lockmgr":
		data, err = runLockmgr(*quick)
	case "engine":
		data, err = runEngine(*quick, *protocol)
	case "wal":
		data, err = runWAL(*quick)
	default:
		err = fmt.Errorf("unknown suite %q (want model, locksrv, lockmgr, engine or wal)", *suite)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if err := compareReports(data, *compare); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// runModel executes the simulation-engine suite and returns the
// marshalled BENCH_model.json document.
func runModel(quick bool) ([]byte, error) {
	tmax := 250.0
	if quick {
		tmax = 100
	}

	rep := report{
		Schema:     "granulock-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}

	fmt.Fprintln(os.Stderr, "bench: sim.Engine/churn")
	rep.Benchmarks = append(rep.Benchmarks, record("sim.Engine/churn", testing.Benchmark(engineChurn), 1))
	fmt.Fprintln(os.Stderr, "bench: sim.Engine/cancel-churn")
	rep.Benchmarks = append(rep.Benchmarks, record("sim.Engine/cancel-churn", testing.Benchmark(engineCancelChurn), 1))
	for _, id := range []string{"fig2", "fig9"} {
		name := "experiments/" + id
		fmt.Fprintln(os.Stderr, "bench: "+name)
		r, eventsPerOp, err := figureBench(id, tmax)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		e := record(name, r, eventsPerOp)
		if quick {
			// Quick figure runs are not comparable to the full-length
			// baseline; keep the measurement, drop the comparison.
			e.Baseline, e.SpeedupEventsPerSec, e.AllocsReduction = nil, 0, 0
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-26s %12.1f ns/op %10.0f allocs/op %14.0f events/sec", e.Name, e.NsPerOp, e.AllocsPerOp, e.EventsPerSec)
		if e.Baseline != nil {
			fmt.Printf("  (%.2fx events/sec, %.0f%% fewer allocs vs baseline)", e.SpeedupEventsPerSec, e.AllocsReduction*100)
		}
		fmt.Println()
	}
	return data, nil
}

// compBench is the schema-agnostic slice of one benchmark entry the
// -compare mode needs: its name plus whichever throughput metric the
// suite records.
type compBench struct {
	Name         string  `json:"name"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
}

func (b compBench) throughput() float64 {
	if b.OpsPerSec > 0 {
		return b.OpsPerSec
	}
	return b.EventsPerSec
}

// compComparison is the slice of a recorded comparison the ratio
// fallback needs: the named speedup plus its acceptance floor.
type compComparison struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
	Target  float64 `json:"target"`
	Pass    bool    `json:"pass"`
}

type comparable struct {
	Quick       bool             `json:"quick"`
	Benchmarks  []compBench      `json:"benchmarks"`
	Comparisons []compComparison `json:"comparisons"`
}

// compareReports diffs the fresh report against a previous one and
// fails on any benchmark whose throughput dropped more than 10%.
// Benchmarks present on only one side are reported but never fail the
// run (suites grow).
//
// When the reports disagree on the quick flag — the CI smoke case,
// where a quick run on an arbitrary runner is diffed against the
// checked-in full-fidelity report from another machine — absolute
// throughput is not comparable and the diff uses the reports' recorded
// speedup ratios instead (fast vs slow measured within one process on
// one machine), with the same 10% tolerance. Either way, any recorded
// comparison carrying an acceptance target must pass in the fresh run.
func compareReports(newData []byte, oldPath string) error {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var oldRep, newRep comparable
	if err := json.Unmarshal(oldData, &oldRep); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := json.Unmarshal(newData, &newRep); err != nil {
		return err
	}
	if oldRep.Quick != newRep.Quick && len(oldRep.Comparisons) > 0 {
		fmt.Printf("compare: quick flags differ (old=%v new=%v); comparing speedup ratios, not throughput\n",
			oldRep.Quick, newRep.Quick)
		return compareRatios(oldRep, newRep, oldPath)
	}
	if err := checkTargets(newRep); err != nil {
		return err
	}
	newBy := make(map[string]float64, len(newRep.Benchmarks))
	for _, b := range newRep.Benchmarks {
		newBy[b.Name] = b.throughput()
	}
	const tolerance = 0.10
	var regressed []string
	for _, old := range oldRep.Benchmarks {
		was := old.throughput()
		now, ok := newBy[old.Name]
		if !ok {
			fmt.Printf("compare: %-46s only in %s\n", old.Name, oldPath)
			continue
		}
		if was <= 0 {
			continue
		}
		ratio := now / was
		status := "ok"
		if ratio < 1-tolerance {
			status = "REGRESSED"
			regressed = append(regressed, old.Name)
		}
		fmt.Printf("compare: %-46s %14.0f -> %14.0f  (%.2fx) %s\n", old.Name, was, now, ratio, status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %v", len(regressed), tolerance*100, regressed)
	}
	return nil
}

// compareRatios diffs the recorded speedup ratios of two reports.
// Ratios divide out the machine: a fast-vs-slow speedup measured on a
// CI runner is directly comparable to the same speedup measured on the
// baseline machine, while their absolute ops/sec are not. The
// tolerance is wider than the throughput diff's because a ratio
// compounds the noise of two measurements; the hard floor is the
// recorded acceptance targets, which checkTargets enforces on the
// fresh run regardless of drift.
func compareRatios(oldRep, newRep comparable, oldPath string) error {
	newBy := make(map[string]compComparison, len(newRep.Comparisons))
	for _, c := range newRep.Comparisons {
		newBy[c.Name] = c
	}
	const tolerance = 0.25
	var regressed []string
	for _, old := range oldRep.Comparisons {
		now, ok := newBy[old.Name]
		if !ok {
			fmt.Printf("compare: %-58s only in %s\n", old.Name, oldPath)
			continue
		}
		if old.Speedup <= 0 {
			continue
		}
		ratio := now.Speedup / old.Speedup
		status := "ok"
		if ratio < 1-tolerance {
			status = "REGRESSED"
			regressed = append(regressed, old.Name)
		}
		fmt.Printf("compare: %-58s %6.2fx -> %6.2fx  (%.2fx) %s\n", old.Name, old.Speedup, now.Speedup, ratio, status)
	}
	if err := checkTargets(newRep); err != nil {
		return err
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d speedup ratio(s) regressed more than %.0f%%: %v", len(regressed), tolerance*100, regressed)
	}
	return nil
}

// checkTargets fails if any comparison in the fresh report missed its
// recorded acceptance floor.
func checkTargets(rep comparable) error {
	var missed []string
	for _, c := range rep.Comparisons {
		if c.Target > 0 && !c.Pass {
			missed = append(missed, fmt.Sprintf("%s: %.2fx < target %.3gx", c.Name, c.Speedup, c.Target))
		}
	}
	if len(missed) > 0 {
		return fmt.Errorf("%d comparison(s) below their acceptance target: %v", len(missed), missed)
	}
	return nil
}
