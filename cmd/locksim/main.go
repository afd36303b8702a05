// Command locksim runs a single configuration of the locking-granularity
// simulation model and prints its output parameters.
//
// Usage:
//
//	locksim [flags]
//
// Example (the paper's base configuration on 30 processors):
//
//	locksim -npros 30 -ltot 100 -tmax 1000
//	locksim -npros 10 -ltot 5000 -placement worst -json
//	locksim -reps 5 -npros 20        # replicated with 95% CIs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"granulock"
	tracepkg "granulock/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "locksim:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("locksim", flag.ContinueOnError)
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
	seed := fs.Uint64("seed", 1, "random seed")
	placement := fs.String("placement", "best", "granule placement: best, worst or random")
	partitioning := fs.String("partitioning", "horizontal", "data partitioning: horizontal or random")
	mix := fs.Bool("mix", false, "use the 80% small / 20% large workload mix of §3.6")
	mpl := fs.Int("mpl", 0, "fixed MPL admission limit (0 = unlimited)")
	reps := fs.Int("reps", 1, "independent replications (report 95% CIs when > 1)")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	predict := fs.Bool("analytic", false, "also print the analytic (MVA) prediction")
	trace := fs.Int("trace", 0, "print the first N transaction lifecycle events")
	traceFile := fs.String("tracefile", "", "write the full event trace as JSON lines to this file")
	quantiles := fs.Bool("quantiles", false, "also print response-time P50/P90/P99")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Refuse what the output chosen below would drop, before any file is
	// created: an observer watches one run, and only the one run's text
	// block has an analytic line.
	if *reps > 1 {
		for _, f := range []struct {
			name string
			set  bool
		}{{"-quantiles", *quantiles}, {"-trace", *trace > 0}, {"-tracefile", *traceFile != ""}} {
			if f.set {
				return fmt.Errorf("%s is incompatible with -reps above 1: it watches one run", f.name)
			}
		}
	}
	if *predict && (*reps > 1 || *asJSON) {
		other := "-json"
		if *reps > 1 {
			other = "-reps above 1"
		}
		return fmt.Errorf("-analytic is incompatible with %s: that output has no analytic line", other)
	}
	p.Seed = *seed
	var err error
	if p.Placement, err = parsePlacement(*placement); err != nil {
		return err
	}
	if p.Partitioning, err = parsePartitioning(*partitioning); err != nil {
		return err
	}
	if *mix {
		p.Classes = granulock.SmallLargeMix(50, 500, 0.8)
	}
	if *mpl > 0 {
		p.Scheduler = granulock.FixedMPL(*mpl)
	}

	if *reps > 1 {
		var r granulock.Replicated
		if _, err := granulock.Run(p, granulock.WithReplications(*reps), granulock.WithReplicatedSummary(&r)); err != nil {
			return err
		}
		if *asJSON {
			return json.NewEncoder(out).Encode(r)
		}
		fmt.Fprintf(out, "replications     %d\n", r.Throughput.N)
		fmt.Fprintf(out, "throughput       %.4f ± %.4f\n", r.Throughput.Mean, r.Throughput.CI95)
		fmt.Fprintf(out, "response time    %.2f ± %.2f\n", r.MeanResponse.Mean, r.MeanResponse.CI95)
		fmt.Fprintf(out, "useful CPU       %.2f ± %.2f\n", r.UsefulCPU.Mean, r.UsefulCPU.CI95)
		fmt.Fprintf(out, "useful I/O       %.2f ± %.2f\n", r.UsefulIO.Mean, r.UsefulIO.CI95)
		fmt.Fprintf(out, "lock overhead    %.2f ± %.2f\n", r.LockOverhead.Mean, r.LockOverhead.CI95)
		return nil
	}

	// Every observer a flag asks for watches the one run.
	var observers []granulock.Observer
	var rc *granulock.ResponseCollector
	if *quantiles {
		rc = &granulock.ResponseCollector{}
		observers = append(observers, rc)
	}
	var f *os.File
	var tw *tracepkg.Writer
	if *traceFile != "" {
		if f, err = os.Create(*traceFile); err != nil {
			return err
		}
		tw = tracepkg.NewWriter(f)
		observers = append(observers, tw)
	}
	if *trace > 0 {
		observers = append(observers, &eventTracer{out: out, limit: *trace})
	}
	m, err := granulock.Run(p, granulock.WithObserver(tracepkg.Tee(observers...)))
	if tw != nil {
		if cerr := tw.Close(); err == nil {
			err = cerr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if tw != nil {
		fmt.Fprintf(out, "trace: %d events written to %s\n", tw.Events(), *traceFile)
	}
	if rc != nil {
		fmt.Fprintf(out, "response P50     %.2f\n", granulock.Quantile(rc.Responses, 0.50))
		fmt.Fprintf(out, "response P90     %.2f\n", granulock.Quantile(rc.Responses, 0.90))
		fmt.Fprintf(out, "response P99     %.2f\n", granulock.Quantile(rc.Responses, 0.99))
	}
	if *asJSON {
		return json.NewEncoder(out).Encode(m)
	}
	if *predict {
		pred, err := granulock.Predict(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "analytic thr.    %.4f (no-contention %.4f, block prob %.3f)\n",
			pred.Throughput, pred.NoContention, pred.BlockProbability)
	}
	fmt.Fprintf(out, "totcpus          %.2f\n", m.TotCPUs)
	fmt.Fprintf(out, "totios           %.2f\n", m.TotIOs)
	fmt.Fprintf(out, "lockcpus         %.2f\n", m.LockCPUs)
	fmt.Fprintf(out, "lockios          %.2f\n", m.LockIOs)
	fmt.Fprintf(out, "usefulcpus       %.2f\n", m.UsefulCPUs)
	fmt.Fprintf(out, "usefulios        %.2f\n", m.UsefulIOs)
	fmt.Fprintf(out, "totcom           %d\n", m.TotCom)
	fmt.Fprintf(out, "throughput       %.4f\n", m.Throughput)
	fmt.Fprintf(out, "response time    %.2f\n", m.MeanResponse)
	fmt.Fprintf(out, "lock requests    %d (denied %d, rate %.3f)\n", m.LockRequests, m.LockDenials, m.DenialRate)
	fmt.Fprintf(out, "mean active txns %.2f\n", m.MeanActive)
	return nil
}

// eventTracer prints the first limit lifecycle events, one per line.
type eventTracer struct {
	out   *os.File
	limit int
	seen  int
}

// Observe implements granulock.Observer.
func (t *eventTracer) Observe(e tracepkg.Event) {
	if t.seen >= t.limit {
		return
	}
	t.seen++
	switch e.Kind {
	case tracepkg.EventArrive:
		fmt.Fprintf(t.out, "%10.3f  txn %-5d arrived (entities=%d, locks=%d)\n", e.At, e.Txn, e.Entities, e.Locks)
	case tracepkg.EventRequest:
		fmt.Fprintf(t.out, "%10.3f  txn %-5d lock request\n", e.At, e.Txn)
	case tracepkg.EventGrant:
		fmt.Fprintf(t.out, "%10.3f  txn %-5d granted\n", e.At, e.Txn)
	case tracepkg.EventDeny:
		blocker, _ := e.BlockerID()
		fmt.Fprintf(t.out, "%10.3f  txn %-5d denied, blocked by txn %d\n", e.At, e.Txn, blocker)
	case tracepkg.EventComplete:
		fmt.Fprintf(t.out, "%10.3f  txn %-5d completed (response %.3f)\n", e.At, e.Txn, e.Response)
	}
}

func parsePlacement(s string) (granulock.Placement, error) {
	switch s {
	case "best":
		return granulock.PlacementBest, nil
	case "worst":
		return granulock.PlacementWorst, nil
	case "random":
		return granulock.PlacementRandom, nil
	}
	return 0, fmt.Errorf("unknown placement %q (best, worst, random)", s)
}

func parsePartitioning(s string) (granulock.Strategy, error) {
	switch s {
	case "horizontal":
		return granulock.Horizontal, nil
	case "random":
		return granulock.RandomPart, nil
	}
	return 0, fmt.Errorf("unknown partitioning %q (horizontal, random)", s)
}
