// Command sweep runs the simulation model over one swept parameter and
// prints a metric table — a generic tool for exploring configurations
// beyond the paper's figures.
//
// Usage:
//
//	sweep -param ltot -values 1,10,100,1000,5000 -npros 20
//	sweep -param npros -values 1,2,4,8,16,32 -ltot 100 -metric response
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
// the simulation only and is rejected with -engine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"granulock"
	"granulock/internal/engine/cc"
	"granulock/internal/experiments"
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
	fs.IntVar(&p.DBSize, "dbsize", p.DBSize, "database size")
	fs.IntVar(&p.Ltot, "ltot", p.Ltot, "number of locks")
	fs.IntVar(&p.NTrans, "ntrans", p.NTrans, "transactions in the system")
	fs.IntVar(&p.MaxTransize, "maxtransize", p.MaxTransize, "maximum transaction size")
	fs.IntVar(&p.NPros, "npros", p.NPros, "number of processors")
	fs.Float64Var(&p.TMax, "tmax", p.TMax, "simulated time units")
	seed := fs.Uint64("seed", 1, "random seed")
	param := fs.String("param", "ltot", "parameter to sweep: ltot, npros, ntrans or maxtransize")
	values := fs.String("values", "1,10,100,1000,5000", "comma-separated sweep values")
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
	if err := validateProtocol(*protocol); err != nil {
		return err
	}
	p.Seed = *seed

	if *engineMode {
		if *withMetrics {
			return errors.New("-metrics reports the simulation's registry; it cannot be combined with -engine")
		}
		return runEngineSweep(p, *protocol, *param, *values, *metric, out)
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
		return func(m granulock.Metrics) float64 { return m.Throughput }, nil
	case "response":
		return func(m granulock.Metrics) float64 { return m.MeanResponse }, nil
	case "usefulio":
		return func(m granulock.Metrics) float64 { return m.UsefulIOs }, nil
	case "usefulcpu":
		return func(m granulock.Metrics) float64 { return m.UsefulCPUs }, nil
	case "lockoverhead":
		return func(m granulock.Metrics) float64 { return m.LockCPUs + m.LockIOs }, nil
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
