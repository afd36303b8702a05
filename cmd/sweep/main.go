// Command sweep runs the locking-granularity simulation model, either on
// the one configuration its flags describe or over one swept parameter,
// and prints its output parameters. Every model input — Table 1's and
// §3.4–3.6's partitioning, placement and size mix — is a flag, so each
// axis the paper's figures vary can be set under a sweep too.
//
// Usage:
//
//	sweep [flags]                             one configuration
//	sweep -param P -values v1,v2,... [flags]  one table row per value of P
//
// Examples:
//
//	sweep -npros 30 -ltot 100 -tmax 1000
//	sweep -npros 10 -ltot 5000 -placement worst -json
//	sweep -reps 5 -npros 20        # replicated with 95% CIs
//	sweep -param ltot -values 1,10,100,1000,5000 -placement worst
//	sweep -param npros -values 1,2,4,8,16,32 -ltot 100 -metric response
//
// One configuration prints the metric block; -reps, -json, -analytic,
// -quantiles, -trace and -tracefile shape that output and are refused
// beside -values.
//
// With -engine the sweep drives the executable engine instead of the
// simulation model: -param maps onto the engine (ltot=granules,
// ntrans=workers, npros=nodes) and -protocol picks the concurrency-
// control protocol from the cc registry (-protocol list prints it):
//
//	sweep -engine -protocol wait-die -param ltot -values 1,10,100 -dbsize 1000
//	sweep -engine -protocol optimistic -param ntrans -values 1,2,4,8,16 -metric restarts
//
// -metrics appends the run's metric registry — cell progress counters,
// per-cell wall-time histogram, and the last cell's simulation gauges —
// to stderr in Prometheus text format after the table. It applies to
// a simulation sweep only.
//
// A flag that does not apply in the mode it is given in is refused,
// naming both flags, before anything runs or any file is created.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"granulock"
	"granulock/internal/engine/cc"
	"granulock/internal/experiments"
	"granulock/internal/partition"
	"granulock/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	p := granulock.DefaultParams()
	fs.IntVar(&p.DBSize, "dbsize", p.DBSize, "accessible entities in the database")
	fs.IntVar(&p.Ltot, "ltot", p.Ltot, "number of locks (granules)")
	fs.IntVar(&p.NTrans, "ntrans", p.NTrans, "transactions in the closed system")
	fs.IntVar(&p.MaxTransize, "maxtransize", p.MaxTransize, "maximum transaction size")
	fs.Float64Var(&p.CPUTime, "cputime", p.CPUTime, "CPU time units per entity")
	fs.Float64Var(&p.IOTime, "iotime", p.IOTime, "I/O time units per entity")
	fs.Float64Var(&p.LockCPUTime, "lcputime", p.LockCPUTime, "CPU time units per lock")
	fs.Float64Var(&p.LockIOTime, "liotime", p.LockIOTime, "I/O time units per lock")
	fs.IntVar(&p.NPros, "npros", p.NPros, "number of processors")
	fs.Float64Var(&p.TMax, "tmax", p.TMax, "simulated time units")
	fs.Uint64Var(&p.Seed, "seed", 1, "random seed")
	placement := fs.String("placement", "best", "granule placement: best, worst or random")
	partitioning := fs.String("partitioning", "horizontal", "data partitioning: horizontal or random")
	mix := fs.Bool("mix", false, "use the 80% small / 20% large workload mix of §3.6")
	mpl := fs.Int("mpl", 0, "fixed MPL admission limit (0 = unlimited)")
	var o oneRun
	fs.IntVar(&o.reps, "reps", 1, "independent replications (report 95% CIs when > 1)")
	fs.BoolVar(&o.json, "json", false, "emit JSON instead of text")
	fs.BoolVar(&o.analytic, "analytic", false, "also print the analytic (MVA) prediction")
	fs.IntVar(&o.trace, "trace", 0, "print the first N transaction lifecycle events")
	fs.StringVar(&o.traceFile, "tracefile", "", "write the full event trace as JSON lines to this file")
	fs.BoolVar(&o.quantiles, "quantiles", false, "also print response-time P50/P90/P99")
	param := fs.String("param", "ltot", "parameter to sweep: ltot, npros, ntrans or maxtransize")
	values := fs.String("values", "", "comma-separated values of -param to sweep (none: run one configuration)")
	metric := fs.String("metric", "throughput", "metric to report: throughput, response, usefulio, usefulcpu, lockoverhead, denialrate")
	withMetrics := fs.Bool("metrics", false, "print the run's metric registry to stderr in Prometheus text format")
	engineMode := fs.Bool("engine", false, "sweep the executable engine instead of the simulation (params: ltot=granules, ntrans=workers, npros=nodes)")
	protocol := fs.String("protocol", "", "engine concurrency-control protocol (with -engine); \"list\" prints the registry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *protocol == "list" {
		for _, n := range cc.Names() {
			fmt.Fprintln(out, n)
		}
		return nil
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	sweep := given["values"]
	for _, r := range []struct {
		on    bool     // the mode or flag the others conflict with is in force
		rel   string   // how the error names it
		flags []string // the flags refused while it is
		why   string
	}{
		{sweep, "is incompatible with -values", []string{"reps", "json", "analytic", "trace", "tracefile", "quantiles"}, "it shapes the output of one configuration"},
		{sweep, "is incompatible with -param " + *param, []string{*param}, "the sweep sets it"},
		{!sweep, "needs -values", []string{"engine", "param", "metric", "metrics"}, "without it sweep runs one configuration"},
		{*engineMode, "is incompatible with -engine", []string{"maxtransize", "cputime", "iotime", "lcputime", "liotime", "tmax", "placement", "partitioning", "mix", "mpl", "metrics"}, "the engine does not model it"},
		{!*engineMode, "needs -engine", []string{"protocol"}, "only the engine runs a protocol"},
		{*mix, "is incompatible with -mix", []string{"maxtransize"}, "the mix sets the sizes"},
		{sweep && *param == "maxtransize", "is incompatible with -param maxtransize", []string{"mix"}, "the mix sets the sizes"},
		{o.reps > 1, "is incompatible with -reps above 1", []string{"quantiles", "trace", "tracefile", "analytic"}, "it reports on one run"},
		{o.json, "is incompatible with -json", []string{"analytic", "quantiles", "trace"}, "the output is one JSON object"},
	} {
		for _, f := range r.flags {
			if r.on && given[f] {
				return fmt.Errorf("-%s %s: %s", f, r.rel, r.why)
			}
		}
	}
	if *engineMode {
		return runEngineSweep(p, *protocol, *param, *values, *metric, out)
	}

	var err error
	if p.Placement, err = workload.ParsePlacement(*placement); err != nil {
		return err
	}
	if p.Partitioning, err = partition.ParseStrategy(*partitioning); err != nil {
		return err
	}
	if *mix {
		p.Classes = granulock.SmallLargeMix(50, 500, 0.8)
	}
	if *mpl > 0 {
		p.Scheduler = granulock.FixedMPL(*mpl)
	}
	if !sweep {
		return o.run(p, out)
	}

	get, err := metricAccessor(*metric)
	if err != nil {
		return err
	}
	set, err := paramSetter(*param)
	if err != nil {
		return err
	}

	var reg *granulock.Registry
	var opts []granulock.RunOption
	if *withMetrics {
		reg = granulock.NewRegistry()
		opts = append(opts, granulock.WithMetrics(reg))
	}

	fields := strings.Split(*values, ",")
	start := time.Now()
	sm := experiments.NewSweepMetrics(reg, "cmd-sweep")
	sm.CellsTotal(int64(len(fields)))
	fmt.Fprintf(out, "%12s  %14s\n", *param, *metric)
	for _, field := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad sweep value %q: %w", field, err)
		}
		q := p
		set(&q, v)
		cellStart := time.Now()
		m, err := granulock.Run(q, opts...)
		if err != nil {
			return fmt.Errorf("%s=%d: %w", *param, v, err)
		}
		sm.CellDone(time.Since(cellStart))
		fmt.Fprintf(out, "%12d  %14.4f\n", v, get(m))
	}
	if reg != nil {
		reg.NewGauge("granulock_sweep_wall_seconds",
			"Wall time of the whole sweep in seconds.").Set(time.Since(start).Seconds())
		if _, err := reg.WriteTo(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

func metricAccessor(name string) (func(granulock.Metrics) float64, error) {
	switch name {
	case "throughput":
		return experiments.Throughput, nil
	case "response":
		return experiments.MeanResponse, nil
	case "usefulio":
		return experiments.UsefulIO, nil
	case "usefulcpu":
		return experiments.UsefulCPU, nil
	case "lockoverhead":
		return experiments.LockOverhead, nil
	case "denialrate":
		return func(m granulock.Metrics) float64 { return m.DenialRate }, nil
	}
	return nil, fmt.Errorf("unknown metric %q", name)
}

func paramSetter(name string) (func(*granulock.Params, int), error) {
	switch name {
	case "ltot":
		return func(p *granulock.Params, v int) { p.Ltot = v }, nil
	case "npros":
		return func(p *granulock.Params, v int) { p.NPros = v }, nil
	case "ntrans":
		return func(p *granulock.Params, v int) { p.NTrans = v }, nil
	case "maxtransize":
		return func(p *granulock.Params, v int) { p.MaxTransize = v }, nil
	}
	return nil, fmt.Errorf("unknown sweep parameter %q", name)
}
