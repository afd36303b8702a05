package experiments

import (
	"context"
	"fmt"

	"granulock/internal/engine"
	"granulock/internal/engine/cc"
	"granulock/internal/model"
)

// Protocol-comparison experiments drive the *executable* engine rather
// than the simulator: every registered concurrency-control protocol
// (internal/engine/cc) runs the same closed bank-transfer workload and
// the figures compare them across the contention, granularity and MPL
// axes the paper sweeps. A cross-validation panel replays the
// granularity axis on the simulation model so the engine's blocking
// trend can be checked against the paper's analytical machinery.
//
// Engine results are carried in model.Metrics with this mapping:
// Throughput = committed transactions per second; TotCom = committed;
// MeanResponse = workers·elapsed/committed (Little's law, seconds);
// LockRequests/LockDenials/DenialRate = the protocol's lock-table
// grants/blocks; Events = protocol-initiated restarts (diagnostic).

// EngineCell is one run of the executable engine: a closed
// bank-transfer workload under one protocol on a database of DBSize
// entities in Granules granules, spread over Nodes nodes.
type EngineCell struct {
	DBSize   int
	Granules int
	Nodes    int
	Protocol engine.Protocol
	Workload engine.Workload
}

// Run executes the cell and maps the result into Metrics. A cell whose
// run moved the total balance is an error: every figure built on the
// engine measures only executions that kept the bank-transfer invariant.
func (c EngineCell) Run(ctx context.Context) (model.Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	db, err := engine.Open(c.DBSize,
		engine.WithNodes(c.Nodes),
		engine.WithGranules(c.Granules),
		engine.WithProtocol(c.Protocol),
		engine.WithInitialValue(100))
	if err != nil {
		return model.Metrics{}, err
	}
	defer db.Close()
	before := db.TotalBalance()
	res, err := db.RunClosed(ctx, c.Workload)
	if err != nil {
		return model.Metrics{}, err
	}
	if after := db.TotalBalance(); after != before {
		return model.Metrics{}, fmt.Errorf("balance moved from %d to %d under %s (dbsize %d, granules %d)",
			before, after, c.Protocol, c.DBSize, c.Granules)
	}
	s := db.Stats()
	var m model.Metrics
	m.TotCom = int(res.Committed)
	m.Throughput = res.ThroughputTPS
	if res.Committed > 0 {
		m.MeanResponse = float64(c.Workload.Workers) * res.Elapsed.Seconds() / float64(res.Committed)
	}
	m.LockRequests = int(s.Lock.Grants)
	m.LockDenials = int(s.Lock.Blocks)
	if s.Lock.Grants > 0 {
		m.DenialRate = float64(s.Lock.Blocks) / float64(s.Lock.Grants)
	}
	m.Events = uint64(s.Restarts)
	return m, nil
}

// engineSweep runs one series per registered protocol over the x grid.
// Cells run sequentially — engine cells are themselves concurrent
// (Workload.Workers goroutines), so running them in parallel would
// contaminate each other's throughput timing. Replications average with
// distinct workload seeds, reporting a 95% CI like the simulator sweep.
func engineSweep(o Options, xs []float64, mkConfig func(protocol engine.Protocol, point int) EngineCell) ([]Series, error) {
	o = o.normalize()
	protocols := cc.Names()
	series := make([]Series, len(protocols))
	for si, protocol := range protocols {
		pts := make([]Point, len(xs))
		for pi, x := range xs {
			ms := make([]model.Metrics, 0, o.Replications)
			for r := 0; r < o.Replications; r++ {
				if o.Context != nil && o.Context.Err() != nil {
					return nil, o.Context.Err()
				}
				c := mkConfig(protocol, pi)
				c.Workload.Seed = replicaSeed(o.Seed, r)
				m, err := c.Run(o.Context)
				if err != nil {
					return nil, fmt.Errorf("experiments: protocol %s x=%v: %w", protocol, x, err)
				}
				ms = append(ms, m)
			}
			avg, rep := Summarize(ms)
			pts[pi] = Point{X: x, M: avg, ThroughputCI: rep.Throughput.CI95}
		}
		series[si] = Series{Label: protocol, Points: pts}
	}
	return series, nil
}

// protoWorkload is the shared closed workload of the protocol figures:
// short transfers with a read mix and a little lock-holding work, small
// enough that a full multi-protocol sweep stays interactive.
func protoWorkload() engine.Workload {
	return engine.Workload{
		Workers: 8, TxnsPerWorker: 60, TransfersPerTxn: 2,
		ReadFraction: 0.2, WorkPerTxn: 2000,
	}
}

// restartsPerCommit is the restart-overhead metric of the protocol
// panels: protocol-initiated aborts per committed transaction.
func restartsPerCommit(m model.Metrics) float64 {
	if m.TotCom == 0 {
		return 0
	}
	return float64(m.Events) / float64(m.TotCom)
}

// protoContention sweeps access skew: transactions draw their
// entities zipf-distributed over a small hot set with probability
// rising along the x axis. Pessimistic protocols respond with blocking
// and deadlock restarts, wound-wait/wait-die with wounds and deaths,
// optimistic with validation failures — the figure shows which regime
// each protocol tolerates.
func protoContention(o Options) (Figure, error) {
	skews := []float64{0, 0.4, 0.8, 1.2}
	xs := make([]float64, len(skews))
	copy(xs, skews)
	series, err := engineSweep(o, xs, func(protocol engine.Protocol, pi int) EngineCell {
		w := protoWorkload()
		w.ZipfSkew = skews[pi]
		if skews[pi] > 0 {
			w.HotEntities = 20
		}
		return EngineCell{DBSize: 400, Granules: 40, Nodes: 4, Protocol: protocol, Workload: w}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Title:  "Protocols: contention sweep on the executable engine (dbsize=400, granules=40, mpl=8)",
		XLabel: "zipf skew over 20 hot entities",
		Panels: []Panel{
			{YLabel: "throughput (txn/s)", Metric: Throughput, Series: series},
			{YLabel: "restarts per commit", Metric: restartsPerCommit, Series: series},
		},
	}, nil
}

// protoGranularity replays the paper's central sweep — lock
// granularity — on the executable engine under every protocol, with a
// simulator cross-validation panel: the simulation model runs the
// matching configuration (ltot = granule count) and its lock denial
// rate must fall with granularity exactly as the engine's conservative
// blocking rate does.
func protoGranularity(o Options) (Figure, error) {
	granules := []int{1, 2, 5, 10, 20, 50, 100, 200, 400}
	xs := floatXs(granules)
	const dbSize = 400
	series, err := engineSweep(o, xs, func(protocol engine.Protocol, pi int) EngineCell {
		return EngineCell{DBSize: dbSize, Granules: granules[pi], Nodes: 4, Protocol: protocol, Workload: protoWorkload()}
	})
	if err != nil {
		return Figure{}, err
	}

	// Cross-validation series: the engine's conservative blocking rate
	// next to the simulator's denial rate at ltot = granules. The two
	// systems measure different absolute quantities; the shared claim is
	// the trend — blocking falls as granularity refines.
	var engineConservative Series
	for _, s := range series {
		if s.Label == engine.Conservative {
			engineConservative = Series{Label: "engine conservative (blocks/grant)", Points: s.Points}
		}
	}
	sim, err := sweep(o, []string{"simulator (denial rate)"}, xs, func(_, pi int) model.Params {
		p := BaseParams()
		p.DBSize, p.NTrans, p.MaxTransize, p.NPros = dbSize, 8, 8, 4
		p.Ltot = granules[pi]
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	denialRate := func(m model.Metrics) float64 { return m.DenialRate }
	return Figure{
		Title:  "Protocols: granularity sweep on the executable engine, cross-validated against the simulator (dbsize=400, mpl=8)",
		XLabel: "number of granules",
		Panels: []Panel{
			{YLabel: "throughput (txn/s)", Metric: Throughput, Series: series},
			{YLabel: "restarts per commit", Metric: restartsPerCommit, Series: series},
			{YLabel: "blocking probability (trend check)", Metric: denialRate,
				Series: []Series{engineConservative, sim[0]}},
		},
	}, nil
}

// protoMPL sweeps the multiprogramming level (closed worker
// population): the concurrency-vs-contention trade-off each protocol
// strikes as load rises, at a moderately contended configuration.
func protoMPL(o Options) (Figure, error) {
	workers := []int{1, 2, 4, 8, 16}
	xs := floatXs(workers)
	series, err := engineSweep(o, xs, func(protocol engine.Protocol, pi int) EngineCell {
		w := protoWorkload()
		w.Workers = workers[pi]
		w.ZipfSkew = 0.8
		w.HotEntities = 40
		return EngineCell{DBSize: 400, Granules: 40, Nodes: 4, Protocol: protocol, Workload: w}
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Title:  "Protocols: multiprogramming-level sweep on the executable engine (dbsize=400, granules=40, skew=0.8)",
		XLabel: "workers (closed MPL)",
		Panels: []Panel{
			{YLabel: "throughput (txn/s)", Metric: Throughput, Series: series},
			{YLabel: "restarts per commit", Metric: restartsPerCommit, Series: series},
		},
	}, nil
}
