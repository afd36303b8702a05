package main

import (
	"fmt"
	"slices"
	"time"

	"granulock/internal/experiments"
	"granulock/internal/model"
)

// sim-fig2 loops the paper's Fig. 2 grid through the simulator on one
// goroutine. An operation is one cell; a slice is one pass — the grid
// under each of simSeeds simulator seeds — because the cells differ in
// cost by a factor of fifty and only whole passes do equal work.

// simSeeds is the number of simulator seeds, derived from --seed, a pass
// runs the grid under. One seed moves a cell's event count by a few per
// cent and decides which cell is the median one; two halve what --seed
// does to the result.
const simSeeds = 2

// simOptimumNpros is the processor count at which the grid must show an
// interior throughput optimum over ltot.
const simOptimumNpros = 10

// simGrid returns the cells of a pass: Fig. 2 (npros × ltot from the
// paper's Table 1 parameters) under each of simSeeds simulator seeds
// drawn from seed, one grid after the other. tmax overrides the
// simulation horizon when positive.
func simGrid(seed uint64, tmax float64) []model.Params {
	base := experiments.BaseParams()
	if tmax > 0 {
		base.TMax = tmax
	}
	rnd := newPRNG(seed, simStream)
	var grid []model.Params
	for s := 0; s < simSeeds; s++ {
		base.Seed = rnd.next()
		for _, npros := range experiments.NprosSweep() {
			for _, ltot := range experiments.LtotSweep(base.DBSize) {
				p := base
				p.NPros, p.Ltot = npros, ltot
				grid = append(grid, p)
			}
		}
	}
	return grid
}

// simStream separates the simulator's seeds from the transaction and
// claim streams of the same --seed.
const simStream = 1 << 21

// simPass runs every cell once and returns the pass as a slice, the
// cells' metrics and the number of simulator events. With a span log it
// records one span per cell.
func simPass(grid []model.Params, rec *recorder, sl *spanLog, pass int) (sliceStat, []model.Metrics, uint64, error) {
	before := readUsage(rec.base)
	out := make([]model.Metrics, len(grid))
	s := sliceStat{lats: make([]int64, 0, len(grid))}
	var events uint64
	for i, p := range grid {
		sp := sl.begin(spModelCell, -1, int64(pass*len(grid)+i))
		start := rec.now()
		m, err := model.Run(p)
		s.lats = append(s.lats, rec.now()-start)
		sl.finish(sp)
		if err != nil {
			return s, nil, 0, fmt.Errorf("model.Run(npros=%d, ltot=%d): %w", p.NPros, p.Ltot, err)
		}
		out[i] = m
		events += m.Events
	}
	after := readUsage(rec.base)
	s.ops = len(grid)
	s.dur = time.Duration(after.at - before.at)
	s.cpu = after.cpu - before.cpu
	s.allocBytes = after.allocBytes - before.allocBytes
	s.allocObjs = after.allocObjs - before.allocObjs
	slices.Sort(s.lats)
	return s, out, events, nil
}

// simPasses runs whole passes until dur has elapsed (at least one) and
// checks each against ref.
func simPasses(grid []model.Params, ref []model.Metrics, dur time.Duration, rec *recorder, sl *spanLog, checks *checkList) (window, uint64, error) {
	var w window
	var events uint64
	w.from = rec.now()
	for pass := 0; pass == 0 || time.Duration(rec.now()-w.from) < dur; pass++ {
		s, ms, ev, err := simPass(grid, rec, sl, pass)
		if err != nil {
			return w, 0, err
		}
		for i := range ms {
			if ms[i] != ref[i] {
				checks.fail("sim-fig2: cell npros=%d ltot=%d differs between passes of the grid", grid[i].NPros, grid[i].Ltot)
				break
			}
		}
		events += ev
		w.slices = append(w.slices, s)
		w.attempted += s.ops
	}
	w.to = rec.now()
	return w, events, nil
}

func runSim(cfg runCfg, trace bool) (outcome, error) {
	var out outcome
	grid, setupS, err := timeSetup(cfg.setupBudget(),
		func() ([]model.Params, error) {
			grid := simGrid(cfg.seed, cfg.simTMax)
			for _, p := range grid {
				if err := p.Validate(); err != nil {
					return nil, err
				}
			}
			return grid, nil
		},
		func([]model.Params) error { return nil })
	if err != nil {
		return out, err
	}
	rec := &recorder{base: time.Now()}

	// The warm-up pass fills the simulator's memo tables and is the
	// reference every later pass must reproduce bit for bit.
	_, ref, _, err := simPass(grid, rec, nil, 0)
	if err != nil {
		return out, err
	}
	checkInteriorOptimum(grid, ref, &out.checks)

	if !trace {
		w, _, err := simPasses(grid, ref, cfg.dur, rec, nil, &out.checks)
		if err != nil {
			return out, err
		}
		out.vals = endToEndOf(w)
		out.vals["setup_s"] = setupS
		out.attempted = w.attempted
		return out, nil
	}

	plain, _, err := simPasses(grid, ref, cfg.tracedWindow(), rec, nil, &out.checks)
	if err != nil {
		return out, err
	}
	sl := &spanLog{rec: rec}
	traced, events, err := simPasses(grid, ref, cfg.tracedWindow(), rec, sl, &out.checks)
	if err != nil {
		return out, err
	}
	var objs uint64
	var wall time.Duration
	for _, s := range traced.slices {
		objs += s.allocObjs
		wall += s.dur
	}
	cells := timesByKind([]*spanLog{sl}, traced.from, traced.to+1)
	out.vals = values{
		"trace.overhead_ratio":  traced.tput() / plain.tput(),
		"process.cpu_us_per_op": cpuPerOp(plain),
		"sim.events_per_s":      float64(events) / wall.Seconds(),
		"model.cell_ms_p50":     cells.us(spModelCell, 0.5) / 1e3,
		"model.allocs_per_cell": float64(objs) / float64(traced.attempted),
	}
	out.attempted = traced.attempted
	if cfg.traceDir != "" {
		if err := writeSpans(cfg.traceDir, "sim-fig2", []*spanLog{sl}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkInteriorOptimum requires the paper's result on the simulator,
// under every seed of the pass: at npros = simOptimumNpros, throughput
// peaks strictly inside the ltot axis, because coarse granules serialise
// transactions and fine granules drown them in lock overhead.
func checkInteriorOptimum(grid []model.Params, ms []model.Metrics, checks *checkList) {
	per := len(grid) / simSeeds
	for s := 0; s < simSeeds; s++ {
		first, last, best := -1, -1, -1
		for i := s * per; i < (s+1)*per; i++ {
			if grid[i].NPros != simOptimumNpros {
				continue
			}
			if first < 0 {
				first = i
			}
			last = i
			if best < 0 || ms[i].Throughput > ms[best].Throughput {
				best = i
			}
		}
		if best < 0 || best == first || best == last {
			checks.fail("sim-fig2: no interior throughput optimum over ltot at npros=%d under simulator seed %d", simOptimumNpros, grid[s*per].Seed)
		}
	}
}
