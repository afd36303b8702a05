package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"granulock"
	"granulock/internal/engine"
	"granulock/internal/engine/cc"
	"granulock/internal/experiments"
	"granulock/internal/model"
)

// runEngineSweep sweeps one parameter over the executable engine:
// each value runs a closed bank-transfer workload under the chosen
// protocol (experiments.EngineCell, which also checks that the run kept
// the total balance) and reports the requested metric. Simulation
// parameters map onto the engine as ltot=granules, ntrans=workers,
// npros=nodes.
func runEngineSweep(p granulock.Params, protocol, param, values, metric string, out *os.File) error {
	if protocol == "" {
		protocol = engine.Conservative
	} else if _, ok := cc.Lookup(protocol); !ok {
		return fmt.Errorf("unknown protocol %q (registered: %v)", protocol, cc.Names())
	}
	base := experiments.EngineCell{
		DBSize: p.DBSize, Granules: p.Ltot, Nodes: p.NPros, Protocol: protocol,
		Workload: engine.Workload{
			Workers: p.NTrans, TxnsPerWorker: 200, TransfersPerTxn: 2,
			ReadFraction: 0.2, WorkPerTxn: 2000, Seed: p.Seed,
		},
	}
	var set func(*experiments.EngineCell, int)
	switch param {
	case "ltot":
		set = func(c *experiments.EngineCell, v int) { c.Granules = v }
	case "ntrans":
		set = func(c *experiments.EngineCell, v int) { c.Workload.Workers = v }
	case "npros":
		set = func(c *experiments.EngineCell, v int) { c.Nodes = v }
	default:
		return fmt.Errorf("engine sweep supports -param ltot, ntrans or npros (got %q)", param)
	}
	var get func(m model.Metrics) float64
	switch metric {
	case "throughput":
		get = func(m model.Metrics) float64 { return m.Throughput }
	case "denialrate":
		get = func(m model.Metrics) float64 { return m.DenialRate }
	case "restarts":
		get = func(m model.Metrics) float64 { return float64(m.Events) }
	default:
		return fmt.Errorf("engine sweep supports -metric throughput, denialrate or restarts (got %q)", metric)
	}

	fmt.Fprintf(out, "%12s  %14s  (engine, protocol=%s)\n", param, metric, protocol)
	for _, field := range strings.Split(values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad sweep value %q: %w", field, err)
		}
		c := base
		set(&c, v)
		m, err := c.Run(context.Background())
		if err != nil {
			return fmt.Errorf("%s=%d: %w", param, v, err)
		}
		fmt.Fprintf(out, "%12d  %14.4f\n", v, get(m))
	}
	return nil
}
