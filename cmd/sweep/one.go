package main

import (
	"encoding/json"
	"fmt"
	"os"

	"granulock"
	tracepkg "granulock/internal/trace"
)

// oneRun holds the flags that shape the output of one configuration.
type oneRun struct {
	reps      int
	json      bool
	analytic  bool
	trace     int
	traceFile string
	quantiles bool
}

// run runs p — replicated when o.reps is above 1 — and prints its
// metric block, or its metrics as one JSON object.
func (o oneRun) run(p granulock.Params, out *os.File) error {
	if o.reps > 1 {
		var r granulock.Replicated
		if _, err := granulock.Run(p, granulock.WithReplications(o.reps), granulock.WithReplicatedSummary(&r)); err != nil {
			return err
		}
		if o.json {
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

	// The prediction is made first, so that a configuration it refuses
	// fails before the trace file is created.
	var pred granulock.Prediction
	var err error
	if o.analytic {
		if pred, err = granulock.Predict(p); err != nil {
			return err
		}
	}
	// Every observer a flag asks for watches the one run.
	var observers []granulock.Observer
	var rc *granulock.ResponseCollector
	if o.quantiles {
		rc = &granulock.ResponseCollector{}
		observers = append(observers, rc)
	}
	var f *os.File
	var tw *tracepkg.Writer
	if o.traceFile != "" {
		if f, err = os.Create(o.traceFile); err != nil {
			return err
		}
		tw = tracepkg.NewWriter(f)
		observers = append(observers, tw)
	}
	if o.trace > 0 {
		observers = append(observers, &eventTracer{out: out, limit: o.trace})
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
		// Under -json, stdout holds the one object and nothing else.
		note := out
		if o.json {
			note = os.Stderr
		}
		fmt.Fprintf(note, "trace: %d events written to %s\n", tw.Events(), o.traceFile)
	}
	if rc != nil {
		fmt.Fprintf(out, "response P50     %.2f\n", granulock.Quantile(rc.Responses, 0.50))
		fmt.Fprintf(out, "response P90     %.2f\n", granulock.Quantile(rc.Responses, 0.90))
		fmt.Fprintf(out, "response P99     %.2f\n", granulock.Quantile(rc.Responses, 0.99))
	}
	if o.json {
		return json.NewEncoder(out).Encode(m)
	}
	if o.analytic {
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
