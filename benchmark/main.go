// Command benchmark is the repository's benchmark: paper-shaped
// end-to-end workloads over the simulator, the engine, the write-ahead
// log and the lock service, and a traced run that attributes each
// workload's time to its layers. See README.md in this directory.
//
// One workload in one mode, the way the driver named in BENCHMARK.json
// runs it (the result is the last line of standard output, as JSON):
//
//	bash benchmark/run.sh --workload engine-fine --seed 1 --seconds 28 --trace 0
//
// Every workload in both modes, with a report for -compare:
//
//	bash benchmark/run.sh -seed 1 -out A.json
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// runCfg is what one run of one workload is given.
type runCfg struct {
	seed uint64
	// dur is the measured window of an untraced run. A traced run
	// divides about as much time among its parts: see tracedWindow.
	dur time.Duration
	// dir holds the files the run writes (log directories, journals).
	dir string
	// traceDir, when set, receives the traced run's spans as JSON lines.
	traceDir string
	// probes enables the probes of a traced run.
	probes bool
	// simTMax overrides the simulator's horizon when positive (tests).
	simTMax float64
}

// setupBudget is how long a run spends repeating its set-up to take the
// median.
func (c runCfg) setupBudget() time.Duration { return min(500*time.Millisecond, c.dur/10) }

// A traced run takes about as long as an untraced one, warm-ups
// included, because the driver's time limit counts every run alike: a
// fifth of dur for the untraced reference window and a fifth for the
// traced window (tracedWindow), and a twentieth for each replay and for
// each point of a probe (probeWindow; up to seven on one workload).
func (c runCfg) tracedWindow() time.Duration { return c.dur / 5 }
func (c runCfg) probeWindow() time.Duration  { return c.dur / 20 }

// checkList collects the output checks a run failed.
type checkList []string

func (c *checkList) fail(format string, args ...any) {
	*c = append(*c, fmt.Sprintf(format, args...))
}

// outcome is what one run measured and whether its outputs were right.
type outcome struct {
	vals      values
	attempted int
	failed    int
	checks    checkList
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why records why the workload was chosen: which layer does the
	// work on it, and which does not.
	why string
	run func(cfg runCfg, trace bool) (outcome, error)
}

// runSeconds is the measured window BENCHMARK.json gives the driver
// (run_seconds) and the default of -seconds.
const runSeconds = 28

// workloads lists every workload. BENCHMARK.json names the four the
// driver runs and holds to the bounds; sim-fig2 and engine-durable move
// with the host's memory system and disk by more than any bound the
// driver accepts (README.md, Gated and ungated workloads), so they run
// in the suite and by name only.
var workloads = []workload{
	{"sim-fig2", "simulator only: loops the paper's Fig. 2 grid through model.Run; lock, WAL and wire changes must not move it",
		runSim},
	{"engine-coarse", "ltot=1, left end of the paper's curve: every claim blocks, so lockmgr's grant hand-off and wake-up path does the work",
		func(cfg runCfg, trace bool) (outcome, error) { return runEngine(cfg, engineCoarse, trace) }},
	{"engine-fine", "ltot=4096, right end: ~16 granules preclaimed per txn, almost no waiting, so multi-granule claim and release cost dominates",
		func(cfg runCfg, trace bool) (outcome, error) { return runEngine(cfg, engineFine, trace) }},
	{"engine-durable", "ltot=64 on a file-backed WAL: locking is cheap, the group-commit and fsync path dominates; then close and recover",
		func(cfg runCfg, trace bool) (outcome, error) { return runEngine(cfg, engineDurable, trace) }},
	{"locksrv-spread", "uncontended 4-granule claims over loopback TCP: frame codec, write coalescing, syscalls and table striping do the work",
		func(cfg runCfg, trace bool) (outcome, error) {
			return runLockService(cfg, "locksrv-spread", false, trace)
		}},
	{"locksrv-hot", "one exclusive granule of 8, held while spinning: same wire and table through parked claims, pipelined replies and wake-ups",
		func(cfg runCfg, trace bool) (outcome, error) { return runLockService(cfg, "locksrv-hot", true, trace) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs workload w in one mode and renders its result.
func runOne(w workload, cfg runCfg, trace bool) (result, error) {
	out, err := w.run(cfg, trace)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, c := range out.checks {
		fmt.Fprintf(os.Stderr, "benchmark: check failed: %s\n", c)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	ms, err := render(defs, out.vals, !trace)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{Correct: len(out.checks) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}, nil
}

// environment is recorded with every report: the numbers mean nothing
// without it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// WALFilesystem is the type of the filesystem the durable workloads
	// write to: a tmpfs makes fsync free.
	WALFilesystem string `json:"wal_filesystem"`
}

func environmentOf(dir string) environment {
	return environment{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		WALFilesystem: filesystemOf(dir),
	}
}

// filesystemOf names the filesystem that holds dir.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// printMetrics prints a result's metrics by name, with units.
func printMetrics(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, n := range names {
		if m := r.Metrics[n]; m.Value != 0 {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, m.Value, m.Unit)
		}
	}
	tw.Flush()
	fmt.Printf("  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// report is the suite mode's output file, the input of -compare.
type report struct {
	Env       environment               `json:"env"`
	Seed      uint64                    `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in the mode -trace selects and print its result as the last line; empty runs every workload in both modes")
		seed     = flag.Uint64("seed", 1, "seed of the input generator")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window of an untraced run")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 the per-layer metrics")
		dir      = flag.String("dir", "", "directory for the files the durable workloads write (default: a temporary directory under .bench_build)")
		traceDir = flag.String("tracedir", "", "write the traced runs' spans there as JSON lines")
		outPath  = flag.String("out", "", "without -workload: write the report (the input of -compare) there")
		compare  = flag.Bool("compare", false, "compare the two reports named as arguments against the bounds in -spec")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's definition, read by -compare")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(*specPath, flag.Args()))
	}
	if flag.NArg() != 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *dir, *traceDir, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool, dir, traceDir, outPath string) error {
	// The load generator and the program share the process; four
	// processors are as many as any workload here can use.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if dir == "" {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		tmp, err := os.MkdirTemp(".bench_build", "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cfg := runCfg{seed: seed, dur: time.Duration(seconds) * time.Second, dir: dir, traceDir: traceDir, probes: true}
	env := environmentOf(dir)
	fmt.Printf("nproc %d, GOMAXPROCS %d, %s, WAL filesystem %s, seed %d, %d s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.WALFilesystem, seed, seconds)

	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		r, err := runOne(w, cfg, trace)
		if err != nil {
			return err
		}
		fmt.Printf("%s (trace %v)\n", w.name, trace)
		printMetrics(r)
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !r.Correct {
			return fmt.Errorf("%s: output checks failed", w.name)
		}
		return nil
	}

	rep := report{Env: env, Seed: seed, Seconds: seconds, Workloads: map[string]workloadReport{}}
	correct := true
	for _, w := range workloads {
		var wr workloadReport
		var err error
		fmt.Printf("%s: %s\n", w.name, w.why)
		if wr.EndToEnd, err = runOne(w, cfg, false); err != nil {
			return err
		}
		printMetrics(wr.EndToEnd)
		if wr.PerLayer, err = runOne(w, cfg, true); err != nil {
			return err
		}
		printMetrics(wr.PerLayer)
		correct = correct && wr.EndToEnd.Correct && wr.PerLayer.Correct
		rep.Workloads[w.name] = wr
	}
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}
