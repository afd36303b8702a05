// Command bench regenerates the repository's micro-benchmark reports:
// the quantities the gated end-to-end harness in benchmark/ does not
// measure, each suite a set of same-run ratios with acceptance floors.
// It has three suites, one report schema (DESIGN.md §1.1):
//
//	go run ./cmd/bench -suite lockmgr  -out BENCH_lockmgr.json
//	go run ./cmd/bench -suite cluster  -out BENCH_cluster.json
//	go run ./cmd/bench -suite recovery -out BENCH_recovery.json
//
// The lockmgr suite measures the in-process lock table's claim and
// release cycles, uncontended and contended (lockmgr.go). The cluster
// suite measures the partitioned lock cluster's 1/2/4-node scaling
// curve over a fixed-RTT transport (cluster.go). The recovery suite measures snapshot-bounded
// vs full-history reopen of a durable engine on real file-backed logs
// (recovery.go).
//
// Engine throughput per protocol and per granularity, WAL commit latency
// and syncs per commit, and lock-service throughput over loopback are
// benchmark/'s: cc.proto.*, engine.sweep.*, wal.commit_us_*,
// wal.syncs_per_commit, the locksrv-spread and locksrv-hot workloads and
// locksrv.batch.tput_ops_s (benchmark/README.md). So is the simulator:
// the sim-fig2 workload's sim.events_per_s, model.cell_ms_p50 and
// model.allocs_per_cell, beside internal/sim's BenchmarkEngineChurn and
// BenchmarkEngineCancelChurn and the root package's BenchmarkFigure*.
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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// entry is one benchmark's record. Every suite writes this one type; a
// field a suite does not measure is left zero and omitted, so an absent
// allocs_per_op on a lockmgr entry means none were counted.
type entry struct {
	Name string `json:"name"`

	// The configuration axes of the lockmgr and cluster suites.
	Procs   int     `json:"procs,omitempty"`   // GOMAXPROCS the entry ran at
	Pool    int     `json:"pool,omitempty"`    // shared granule pool (contended runs)
	Nodes   int     `json:"nodes,omitempty"`   // cluster members
	Clients int     `json:"clients,omitempty"` // serial client streams
	RTTMs   float64 `json:"rtt_ms,omitempty"`  // injected round-trip time per acquire+release pair

	Ops         int64   `json:"ops,omitempty"` // operations timed
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// comparison is a ratio between two entries of one run: scale times the
// numerator's throughput over the denominator's.
type comparison struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Scale       float64 `json:"scale,omitempty"` // omitted when 1
	Speedup     float64 `json:"speedup"`
	Target      float64 `json:"target,omitempty"` // acceptance floor, when one exists
	Pass        bool    `json:"pass,omitempty"`
}

// report is the top-level document of every BENCH_*.json.
type report struct {
	Schema      string       `json:"schema"`
	Generated   string       `json:"generated"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Quick       bool         `json:"quick"`
	Benchmarks  []entry      `json:"benchmarks"`
	Comparisons []comparison `json:"comparisons,omitempty"`
}

func newReport(quick bool) *report {
	return &report{
		Schema:     "granulock-bench/v2",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
}

// add announces and runs one benchmark and appends its entry.
func (r *report) add(name string, run func() (entry, error)) error {
	fmt.Fprintln(os.Stderr, "bench: "+name)
	e, err := run()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	e.Name = name
	r.Benchmarks = append(r.Benchmarks, e)
	return nil
}

// compare appends scale times the throughput ratio of two recorded
// entries, with its acceptance floor when target is positive. A scale
// other than 1 compares entries whose operations differ in size, such as
// claims of one and of sixteen granules, per unit.
func (r *report) compare(name, num, den string, scale, target float64) error {
	find := func(n string) (float64, error) {
		for _, e := range r.Benchmarks {
			if e.Name == n && e.OpsPerSec > 0 {
				return e.OpsPerSec, nil
			}
		}
		return 0, fmt.Errorf("comparison %s: no throughput recorded for %q", name, n)
	}
	n, err := find(num)
	if err != nil {
		return err
	}
	d, err := find(den)
	if err != nil {
		return err
	}
	c := comparison{Name: name, Numerator: num, Denominator: den, Speedup: scale * n / d, Target: target}
	if scale != 1 {
		c.Scale = scale
	}
	c.Pass = target > 0 && c.Speedup >= target
	r.Comparisons = append(r.Comparisons, c)
	return nil
}

// print writes the human-readable table of the report to stdout.
func (r *report) print() {
	for _, e := range r.Benchmarks {
		fmt.Printf("%-36s %14.1f ns/op %14.0f /sec", e.Name, e.NsPerOp, e.OpsPerSec)
		if e.AllocsPerOp > 0 {
			fmt.Printf(" %10.0f allocs/op", e.AllocsPerOp)
		}
		fmt.Println()
	}
	for _, c := range r.Comparisons {
		mark := ""
		if c.Target > 0 {
			mark = fmt.Sprintf("  FAIL (target %.3gx)", c.Target)
			if c.Pass {
				mark = fmt.Sprintf("  PASS (target %.3gx)", c.Target)
			}
		}
		fmt.Printf("%-68s %6.2fx%s\n", c.Name, c.Speedup, mark)
	}
}

// suites maps each -suite name to the function that fills its report.
var suites = map[string]func(*report) error{
	"lockmgr":  runLockmgr,
	"cluster":  runCluster,
	"recovery": runRecovery,
}

// txnSeq hands every benchmark transaction a process-unique id.
var txnSeq atomic.Int64

func main() {
	suite := flag.String("suite", "", "benchmark suite (required): lockmgr, cluster or recovery")
	out := flag.String("out", "", "output path (default BENCH_<suite>.json)")
	quick := flag.Bool("quick", false, "shorten workloads for CI smoke runs")
	compare := flag.String("compare", "", "previous report to diff against; exit nonzero on >10% throughput regression")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the suite run")
	flag.Parse()
	if err := run(*suite, *out, *quick, *compare, *cpuprofile); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(suite, out string, quick bool, compare, cpuprofile string) error {
	if suite == "" {
		return errors.New("-suite is required: lockmgr, cluster or recovery")
	}
	fill, ok := suites[suite]
	if !ok {
		return fmt.Errorf("unknown suite %q (want lockmgr, cluster or recovery)", suite)
	}
	if out == "" {
		out = "BENCH_" + suite + ".json"
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := newReport(quick)
	if err := fill(rep); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	rep.print()
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if compare == "" {
		return nil
	}
	oldData, err := os.ReadFile(compare)
	if err != nil {
		return err
	}
	var old report
	if err := json.Unmarshal(oldData, &old); err != nil {
		return fmt.Errorf("%s: %w", compare, err)
	}
	return compareReports(&old, rep, compare)
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
// speedup ratios instead (both sides measured within one process on
// one machine), with a 25% tolerance. Either way, any recorded
// comparison carrying an acceptance target must pass in the fresh run.
func compareReports(oldRep, newRep *report, oldPath string) error {
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
		newBy[b.Name] = b.OpsPerSec
	}
	const tolerance = 0.10
	var regressed []string
	for _, old := range oldRep.Benchmarks {
		was := old.OpsPerSec
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
// Ratios divide out the machine: a speedup measured on a CI runner is
// directly comparable to the same speedup measured on the baseline
// machine, while their absolute ops/sec are not. The
// tolerance is wider than the throughput diff's because a ratio
// compounds the noise of two measurements; the hard floor is the
// recorded acceptance targets, which checkTargets enforces on the
// fresh run regardless of drift.
func compareRatios(oldRep, newRep *report, oldPath string) error {
	newBy := make(map[string]comparison, len(newRep.Comparisons))
	for _, c := range newRep.Comparisons {
		newBy[c.Name] = c
	}
	const tolerance = 0.25
	var regressed []string
	for _, old := range oldRep.Comparisons {
		now, ok := newBy[old.Name]
		if !ok {
			fmt.Printf("compare: %-68s only in %s\n", old.Name, oldPath)
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
		fmt.Printf("compare: %-68s %6.2fx -> %6.2fx  (%.2fx) %s\n", old.Name, old.Speedup, now.Speedup, ratio, status)
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
func checkTargets(rep *report) error {
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
