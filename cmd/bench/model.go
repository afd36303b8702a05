// The model benchmark suite: raw event-loop cost of the simulation
// engine and the wall-clock cost of two representative figure sweeps,
// each against the same benchmark body measured on the seed engine.
package main

import (
	"runtime"
	"sync/atomic"
	"testing"

	"granulock/internal/experiments"
	"granulock/internal/sim"
)

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

// runModel fills rep with the simulation-engine suite.
func runModel(rep *report) error {
	tmax := 250.0
	if rep.Quick {
		tmax = 100
	}
	for _, c := range []struct {
		name string
		body func(*testing.B)
	}{
		{"sim.Engine/churn", engineChurn},
		{"sim.Engine/cancel-churn", engineCancelChurn},
	} {
		err := rep.add(c.name, func() (entry, error) { return record(c.name, testing.Benchmark(c.body), 1), nil })
		if err != nil {
			return err
		}
	}
	for _, id := range []string{"fig2", "fig9"} {
		name := "experiments/" + id
		err := rep.add(name, func() (entry, error) {
			r, eventsPerOp, err := figureBench(id, tmax)
			if err != nil {
				return entry{}, err
			}
			e := record(name, r, eventsPerOp)
			if rep.Quick {
				// Quick figure runs are not comparable to the full-length
				// baseline; keep the measurement, drop the comparison.
				e.Baseline, e.SpeedupEventsPerSec, e.AllocsReduction = nil, 0, 0
			}
			return e, nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
