// Package experiments defines and runs the paper's evaluation — Table 1
// and Figures 2 through 12 — and the extension experiments beyond it:
// the §3.7 scheduling remedy, modeling ablations, per-class and
// response-tail breakdowns, and protocol comparisons on the executable
// engine. Each experiment is one row of a table, run by id (Run); most
// are an ltot sweep of the simulation model against one series axis.
// The output is a Figure holding one or more panels of labelled series,
// renderable as text tables, ASCII charts and CSV.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"granulock/internal/model"
	"granulock/internal/obs"
	"granulock/internal/stats"
)

// BaseParams returns the paper's Table 1 configuration (see DESIGN.md
// for the reconstruction of the scanned table).
func BaseParams() model.Params {
	return model.Params{
		DBSize:      5000,
		Ltot:        100,
		NTrans:      10,
		MaxTransize: 500,
		CPUTime:     0.05,
		IOTime:      0.2,
		LockCPUTime: 0.01,
		LockIOTime:  0.2,
		NPros:       10,
		TMax:        1000,
		Seed:        1,
	}
}

// LtotSweep returns the standard granularity sweep of the figures:
// roughly logarithmic from 1 lock to one lock per entity.
func LtotSweep(dbsize int) []int {
	candidates := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	var out []int
	for _, c := range candidates {
		if c < dbsize {
			out = append(out, c)
		}
	}
	return append(out, dbsize)
}

// NprosSweep is the processor-count sweep of §3.1.
func NprosSweep() []int { return []int{1, 2, 5, 10, 20, 30} }

// Options control experiment execution.
type Options struct {
	// TMax overrides the simulation horizon; 0 keeps the default.
	TMax float64
	// Seed is the base seed; replication r of a run uses
	// Seed + r·1,000,003 (replicaSeed), so the replications of two base
	// seeds less than 1,000,003 apart never share a seed (under Seed+r,
	// base seed 1's second replication would be base seed 2's first).
	// The facade's WithReplications runs the same rule (Replicate).
	Seed uint64
	// Replications averages each point over this many seeds (min 1).
	Replications int
	// Context, when non-nil, cancels the sweep: cells not yet started
	// are skipped and in-flight simulations abort at the next
	// cancellation check (a few thousand events). The sweep then fails
	// with the context's error. Results are unaffected when the context
	// never fires: cancellation checks do not perturb the event order.
	Context context.Context
	// Metrics, when non-nil, reports sweep progress into the registry:
	// per-cell counters and a cell wall-time histogram
	// (granulock_sweep_ families, labelled by figure id).
	Metrics *obs.Registry
	// figure labels the metric series; Run sets it to the experiment
	// id, direct sweep callers report as "adhoc".
	figure string
}

// normalize fills defaults.
func (o Options) normalize() Options {
	if o.Replications < 1 {
		o.Replications = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Point is one swept configuration and its (replication-averaged)
// metrics.
type Point struct {
	X float64 // the swept quantity, e.g. ltot
	M model.Metrics
	// ThroughputCI is the 95% confidence half-width of the throughput
	// across replications (0 for a single replication).
	ThroughputCI float64
}

// Series is one labelled curve of an experiment.
type Series struct {
	Label  string
	Points []Point
}

// XY projects the series through a metric accessor.
func (s Series) XY(metric func(model.Metrics) float64) (xs, ys []float64) {
	xs = make([]float64, len(s.Points))
	ys = make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i] = p.X
		ys[i] = metric(p.M)
	}
	return xs, ys
}

// Panel is one plotted quantity of a figure.
type Panel struct {
	YLabel string
	Metric func(model.Metrics) float64
	Series []Series
}

// Figure is a fully evaluated experiment.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Panels []Panel
}

// cell identifies one simulation of a sweep grid.
type cell struct {
	series int
	point  int
}

// sweep runs a grid: one Series per label, one Point per x value, with
// mkParams producing the configuration for (series, point) and each
// point averaged over o.Replications seeds. The cells run through
// RunCells.
func sweep(o Options, labels []string, xs []float64, mkParams func(series, point int) model.Params) ([]Series, error) {
	o = o.normalize()
	var cells []cell
	var params []model.Params
	for si := range labels {
		for pi := range xs {
			for r := 0; r < o.Replications; r++ {
				p := mkParams(si, pi)
				if o.TMax > 0 {
					p.TMax = o.TMax
				}
				p.Seed = replicaSeed(o.Seed, r)
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("experiments: series %q x=%v: %w", labels[si], xs[pi], err)
				}
				cells = append(cells, cell{series: si, point: pi})
				params = append(params, p)
			}
		}
	}
	ms, err := RunCells(o, params)
	if err != nil {
		return nil, err
	}

	// Group replications per (series, point) and average.
	grouped := make(map[cell][]model.Metrics)
	for i, c := range cells {
		grouped[c] = append(grouped[c], ms[i])
	}

	series := make([]Series, len(labels))
	for si, label := range labels {
		pts := make([]Point, len(xs))
		for pi, x := range xs {
			avg, rep := Summarize(grouped[cell{si, pi}])
			pts[pi] = Point{X: x, M: avg, ThroughputCI: rep.Throughput.CI95}
		}
		series[si] = Series{Label: label, Points: pts}
	}
	sortSeriesPoints(series)
	return series, nil
}

// replicaSeed is the seed of replication r of a run with base seed
// base (see Options.Seed).
func replicaSeed(base uint64, r int) uint64 { return base + uint64(r)*1_000_003 }

// RunCells runs every cell through the cell cache (CachedRunContext) on
// fanOut and returns their Metrics in cell order, or the first failing
// cell's error. A cell's Metrics depend on its Params only, so the pool
// size never changes a result.
func RunCells(o Options, cells []model.Params) ([]model.Metrics, error) {
	ms := make([]model.Metrics, len(cells))
	err := fanOut(o, len(cells), func(i int) (err error) {
		ms[i], err = CachedRunContext(o.Context, cells[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// fanOut is the one fan-out of simulator runs: it calls job(0) ..
// job(n-1) on a pool of GOMAXPROCS workers and returns the error of the
// first failing job in index order. o.Context, when set, skips the jobs
// not yet started (a job aborts its own runs in flight); o.Metrics,
// when set, counts the jobs as cells (granulock_sweep_ families,
// labelled by figure id, "adhoc" outside Run).
func fanOut(o Options, n int, job func(i int) error) error {
	fig := o.figure
	if fig == "" {
		fig = "adhoc"
	}
	sm := NewSweepMetrics(o.Metrics, fig)
	sm.CellsTotal(int64(n))
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if o.Context != nil && o.Context.Err() != nil {
				errs[i] = o.Context.Err()
				return
			}
			start := time.Time{}
			if sm != nil {
				start = time.Now()
			}
			if errs[i] = job(i); errs[i] == nil {
				sm.CellDone(time.Since(start))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Replicated summarizes the replications of one configuration.
type Replicated struct {
	// Runs holds the per-replication metrics in replication order.
	Runs []model.Metrics
	// Throughput, MeanResponse, UsefulCPU, UsefulIO and LockOverhead
	// summarize the headline outputs with 95% confidence half-widths.
	Throughput, MeanResponse, UsefulCPU, UsefulIO, LockOverhead stats.Summary
}

// Replicate runs reps independent replications of p, replication r at
// replicaSeed(p.Seed, r), on fanOut and summarizes them. A zero seed
// is seed 0: p.Seed is not normalized.
func Replicate(ctx context.Context, p model.Params, reps int) (model.Metrics, Replicated, error) {
	if err := p.Validate(); err != nil {
		return model.Metrics{}, Replicated{}, err
	}
	cells := make([]model.Params, reps)
	for r := range cells {
		cells[r] = p
		cells[r].Seed = replicaSeed(p.Seed, r)
	}
	runs, err := RunCells(Options{Context: ctx}, cells)
	if err != nil {
		return model.Metrics{}, Replicated{}, err
	}
	avg, rep := Summarize(runs)
	return avg, rep, nil
}

// Summarize is the one summary of replications: their field-wise mean
// (the Metrics of a sweep Point and of a replicated facade run) and the
// 95% confidence summaries of the headline outputs around that mean.
// One replication is its own mean, with every half-width 0.
func Summarize(ms []model.Metrics) (model.Metrics, Replicated) {
	out := ms[0]
	if len(ms) > 1 {
		n := float64(len(ms))
		out = model.Metrics{}
		for _, m := range ms {
			out.TotCPUs += m.TotCPUs / n
			out.TotIOs += m.TotIOs / n
			out.LockCPUs += m.LockCPUs / n
			out.LockIOs += m.LockIOs / n
			out.UsefulCPUs += m.UsefulCPUs / n
			out.UsefulIOs += m.UsefulIOs / n
			out.Throughput += m.Throughput / n
			out.MeanResponse += m.MeanResponse / n
			out.DenialRate += m.DenialRate / n
			out.MeanActive += m.MeanActive / n
			out.TotCom += m.TotCom
			out.LockRequests += m.LockRequests
			out.LockDenials += m.LockDenials
			out.CompletedEntities += m.CompletedEntities
			out.Events += m.Events
		}
		out.TotCom = int(float64(out.TotCom)/n + 0.5)
		out.LockRequests = int(float64(out.LockRequests)/n + 0.5)
		out.LockDenials = int(float64(out.LockDenials)/n + 0.5)
		out.CompletedEntities = int(float64(out.CompletedEntities)/n + 0.5)
		// Events stays a sum, not a mean: it accounts the total
		// simulation work behind the point, which is what events/sec
		// reporting needs.
	}
	summary := func(metric func(model.Metrics) float64) stats.Summary {
		var spread stats.Welford
		for _, m := range ms {
			spread.Add(metric(m))
		}
		return stats.Summary{N: len(ms), Mean: metric(out), CI95: spread.CI95()}
	}
	return out, Replicated{Runs: ms,
		Throughput: summary(Throughput), MeanResponse: summary(MeanResponse),
		UsefulCPU: summary(UsefulCPU), UsefulIO: summary(UsefulIO),
		LockOverhead: summary(LockOverhead)}
}

// SweepMetrics reports sweep progress into a registry, one label set
// per figure id: the one definition of the granulock_sweep_ families,
// so every sweep sharing a registry registers them alike.
type SweepMetrics struct {
	cells       *obs.Counter
	completed   *obs.Counter
	cellSeconds *obs.Histogram
}

// NewSweepMetrics binds the sweep progress families on reg under the
// figure label, or returns nil when reg is nil; a nil SweepMetrics
// records nothing.
func NewSweepMetrics(reg *obs.Registry, figure string) *SweepMetrics {
	if reg == nil {
		return nil
	}
	return &SweepMetrics{
		cells: reg.NewCounterVec("granulock_sweep_cells_total",
			"Simulation cells scheduled by parameter sweeps.", "figure").With(figure),
		completed: reg.NewCounterVec("granulock_sweep_cells_completed_total",
			"Simulation cells completed by parameter sweeps.", "figure").With(figure),
		cellSeconds: reg.NewHistogramVec("granulock_sweep_cell_seconds",
			"Wall time per completed sweep cell in seconds (cache hits are near zero).",
			obs.ExpBuckets(0.001, 4, 10), "figure").With(figure),
	}
}

// CellsTotal records n cells entering the sweep.
func (sm *SweepMetrics) CellsTotal(n int64) {
	if sm != nil {
		sm.cells.Add(n)
	}
}

// CellDone records one completed cell and its wall time.
func (sm *SweepMetrics) CellDone(d time.Duration) {
	if sm != nil {
		sm.completed.Inc()
		sm.cellSeconds.Observe(d.Seconds())
	}
}

// sortSeriesPoints keeps points in ascending x order (sweeps already
// are, but renderers rely on it).
func sortSeriesPoints(series []Series) {
	for i := range series {
		pts := series[i].Points
		sort.Slice(pts, func(a, b int) bool { return pts[a].X < pts[b].X })
	}
}

// Throughput, MeanResponse, UsefulIO, UsefulCPU and LockOverhead are the
// metric accessors the figures plot.
func Throughput(m model.Metrics) float64   { return m.Throughput }
func MeanResponse(m model.Metrics) float64 { return m.MeanResponse }
func UsefulIO(m model.Metrics) float64     { return m.UsefulIOs }
func UsefulCPU(m model.Metrics) float64    { return m.UsefulCPUs }

// LockOverhead is the total time spent on lock operations (CPU plus
// I/O), the quantity of Figures 4 and 5.
func LockOverhead(m model.Metrics) float64 { return m.LockCPUs + m.LockIOs }
