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
)

// validateProtocol resolves -protocol against the cc registry.
func validateProtocol(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := cc.Lookup(name); !ok {
		return fmt.Errorf("unknown protocol %q (registered: %v)", name, cc.Names())
	}
	return nil
}

// runEngineSweep sweeps one parameter over the executable engine:
// each value runs a closed bank-transfer workload under the chosen
// protocol and reports the requested metric. Simulation parameters map
// onto the engine as ltot=granules, ntrans=workers, npros=nodes.
func runEngineSweep(p granulock.Params, protocol, param, values, metric string, out *os.File) error {
	if protocol == "" {
		protocol = engine.Conservative
	}
	type cell struct {
		granules, workers, nodes int
	}
	base := cell{granules: p.Ltot, workers: p.NTrans, nodes: p.NPros}
	var set func(*cell, int)
	switch param {
	case "ltot":
		set = func(c *cell, v int) { c.granules = v }
	case "ntrans":
		set = func(c *cell, v int) { c.workers = v }
	case "npros":
		set = func(c *cell, v int) { c.nodes = v }
	default:
		return fmt.Errorf("engine sweep supports -param ltot, ntrans or npros (got %q)", param)
	}
	type accessor func(res engine.Result, s engine.Stats) float64
	var get accessor
	switch metric {
	case "throughput":
		get = func(res engine.Result, _ engine.Stats) float64 { return res.ThroughputTPS }
	case "denialrate":
		get = func(_ engine.Result, s engine.Stats) float64 {
			if s.Lock.Grants == 0 {
				return 0
			}
			return float64(s.Lock.Blocks) / float64(s.Lock.Grants)
		}
	case "restarts":
		get = func(_ engine.Result, s engine.Stats) float64 { return float64(s.Restarts) }
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
		y, err := func() (float64, error) {
			db, err := engine.Open(p.DBSize,
				engine.WithNodes(c.nodes),
				engine.WithGranules(c.granules),
				engine.WithProtocol(protocol),
				engine.WithInitialValue(100))
			if err != nil {
				return 0, err
			}
			defer db.Close()
			res, err := db.RunClosed(context.Background(), engine.Workload{
				Workers: c.workers, TxnsPerWorker: 200, TransfersPerTxn: 2,
				ReadFraction: 0.2, WorkPerTxn: 2000, Seed: p.Seed,
			})
			if err != nil {
				return 0, err
			}
			return get(res, db.Stats()), nil
		}()
		if err != nil {
			return fmt.Errorf("%s=%d: %w", param, v, err)
		}
		fmt.Fprintf(out, "%12d  %14.4f\n", v, y)
	}
	return nil
}
