// Package granulock reproduces "Locking Granularity in Multiprocessor
// Database Systems" (S. Dandamudi and S.-L. Au, Proc. IEEE ICDE 1991):
// a discrete-event simulation study of how the number of lockable
// granules affects throughput, response time and lock overhead in a
// shared-nothing multiprocessor database system.
//
// The package is a thin facade; the machinery lives under internal/:
//
//   - internal/model — the paper's closed simulation model, its
//     probabilistic conflict draw included;
//   - internal/experiments — Table 1, Figures 2–12 and the extension
//     experiments beyond the paper (scheduling remedy, modeling
//     ablations, protocol comparisons) as runnable sweeps;
//   - internal/lockmgr — real lock managers (flat S/X,
//     multigranularity, deadlock detection);
//   - internal/engine — an executable shared-nothing mini-DBMS used to
//     cross-validate the simulation's conclusions on real goroutines.
//
// # Quick start
//
//	p := granulock.DefaultParams() // the paper's Table 1 configuration
//	p.NPros = 30
//	p.Ltot = 100
//	m, err := granulock.Run(p)
//	if err != nil { ... }
//	fmt.Println(m.Throughput, m.MeanResponse)
//
// To regenerate a figure from the paper:
//
//	fig, err := granulock.RunFigure("fig2", granulock.Options{})
//	fmt.Println(granulock.RenderText(fig))
package granulock

import (
	"context"
	"errors"
	"io"
	"net/http"

	"granulock/internal/analytic"
	"granulock/internal/experiments"
	"granulock/internal/model"
	"granulock/internal/obs"
	"granulock/internal/partition"
	"granulock/internal/sched"
	"granulock/internal/stats"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

// Params are the simulation model's input parameters; see the field
// documentation in internal/model.
type Params = model.Params

// Metrics are the model's output parameters.
type Metrics = model.Metrics

// Class is one transaction size class of a workload mix.
type Class = workload.Class

// Placement selects the granule-placement strategy (lock demand model).
type Placement = workload.Placement

// Granule placement strategies (paper §3.5).
const (
	PlacementBest   = workload.PlacementBest
	PlacementWorst  = workload.PlacementWorst
	PlacementRandom = workload.PlacementRandom
)

// Strategy selects the data partitioning method (paper §3.4).
type Strategy = partition.Strategy

// Data partitioning strategies.
const (
	Horizontal = partition.Horizontal
	RandomPart = partition.Random
)

// Figure is one evaluated experiment (a paper figure).
type Figure = experiments.Figure

// Options control experiment execution (horizon, seed, replications,
// cancellation, progress metrics).
type Options = experiments.Options

// Replicated summarizes the replications of one configuration: the
// per-replication metrics and 95% confidence intervals of the headline
// outputs.
type Replicated = experiments.Replicated

// PointSummary is one point of a granularity tuning curve.
type PointSummary struct {
	Ltot         int
	Throughput   float64
	MeanResponse float64
}

// DefaultParams returns the paper's Table 1 configuration.
func DefaultParams() Params { return experiments.BaseParams() }

// Registry is a metric registry: labeled families of counters, gauges
// and histograms with Prometheus text-format exposition. Attach one to
// a run with WithMetrics, serve it with Registry.Handler or write it
// with Registry.WriteTo, and inspect it in tests with
// Registry.Snapshot.
type Registry = obs.Registry

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// MetricsHandler returns an http.Handler serving reg in Prometheus
// text format (for mounting on a custom mux; cmd/lockd's -admin
// listener does exactly this).
func MetricsHandler(reg *Registry) http.Handler { return reg.Handler() }

// DefBuckets returns a copy of the default histogram bucket bounds
// (latencies in seconds, sub-millisecond to ~10s).
func DefBuckets() []float64 { return append([]float64(nil), obs.DefBuckets...) }

// ExpBuckets returns n exponential histogram bucket bounds: start,
// start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	return obs.ExpBuckets(start, factor, n)
}

// runConfig collects the effects of RunOptions.
type runConfig struct {
	obs    Observer
	reg    *Registry
	ctx    context.Context
	reps   int
	repOut *Replicated
}

// RunOption configures a Run call.
type RunOption func(*runConfig)

// WithObserver attaches a lifecycle observer (tracing, response
// collection) to the run. Incompatible with WithReplications above 1:
// an observer watches one run, not an ensemble.
func WithObserver(o Observer) RunOption {
	return func(c *runConfig) { c.obs = o }
}

// WithMetrics mirrors the run into reg: lifecycle event counters and
// response-time histograms while the simulation executes, plus the
// output parameters as gauges when it completes (granulock_sim_
// families). Without this option the run executes the exact
// uninstrumented code path, so results and performance are unchanged.
func WithMetrics(reg *Registry) RunOption {
	return func(c *runConfig) { c.reg = reg }
}

// WithContext makes the run cancellable: the event loop checks ctx
// between bounded chunks and the run fails with ctx.Err() if it fires.
// Cancellation checks do not perturb the event order, so a run that
// completes returns exactly what it would have without the context.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithReplications averages the run over reps independent replications,
// executed in parallel: replication r runs Seed + r·1,000,003, the seed
// rule of the figures (Options.Seed). The returned Metrics are the
// field-wise mean; pair with WithReplicatedSummary for confidence
// intervals. reps below 1 is an error.
func WithReplications(reps int) RunOption {
	return func(c *runConfig) { c.reps = reps }
}

// WithReplicatedSummary stores the full replication summary (per-run
// metrics and 95% confidence intervals) into out when the run
// completes. On its own it summarizes a single replication (all
// confidence intervals zero); combine with WithReplications for real
// ensembles. Incompatible with WithObserver.
func WithReplicatedSummary(out *Replicated) RunOption {
	return func(c *runConfig) { c.repOut = out }
}

// Run executes the simulation model and returns its output parameters;
// deterministic per Seed. Options attach an observer (WithObserver),
// mirror the run into a metric registry (WithMetrics), bound it with a
// context (WithContext), or average it over independent replications
// (WithReplications, WithReplicatedSummary). With no options this is
// exactly the classic single-run entry point.
func Run(p Params, opts ...RunOption) (Metrics, error) {
	c := runConfig{reps: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.reps < 1 {
		return Metrics{}, errors.New("granulock: replications < 1")
	}
	var m Metrics
	var err error
	if c.reps > 1 || c.repOut != nil {
		if c.obs != nil {
			return Metrics{}, errors.New("granulock: WithObserver is incompatible with WithReplications: an observer watches one run")
		}
		var rep Replicated
		if m, rep, err = experiments.Replicate(c.ctx, p, c.reps); err == nil && c.repOut != nil {
			*c.repOut = rep
		}
	} else {
		obsv := c.obs
		if c.reg != nil {
			obsv = trace.Tee(c.obs, model.NewMetricsObserver(c.reg))
		}
		m, err = model.RunContext(c.ctx, p, obsv)
	}
	if err != nil {
		return Metrics{}, err
	}
	if c.reg != nil {
		model.RecordMetrics(c.reg, m)
	}
	return m, nil
}

// OptimalGranularity sweeps the number of locks and returns the
// throughput-maximizing value together with the whole curve.
func OptimalGranularity(p Params) (best int, curve []PointSummary, err error) {
	return OptimalGranularityContext(context.Background(), p)
}

// OptimalGranularityContext is OptimalGranularity bounded by a
// context: cancellation is checked before each grid point starts and
// inside in-flight simulations.
func OptimalGranularityContext(ctx context.Context, p Params) (best int, curve []PointSummary, err error) {
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	grid := experiments.LtotSweep(p.DBSize)
	cells := make([]Params, len(grid))
	for i, ltot := range grid {
		cells[i] = p
		cells[i].Ltot = ltot
	}
	// Cells are deduplicated with the figure sweeps: tuning after (or
	// during) a figure run reuses every shared simulation.
	ms, err := experiments.RunCells(Options{Context: ctx}, cells)
	if err != nil {
		return 0, nil, err
	}
	curve = make([]PointSummary, len(grid))
	bestThroughput := -1.0
	for i, m := range ms {
		curve[i] = PointSummary{Ltot: grid[i], Throughput: m.Throughput, MeanResponse: m.MeanResponse}
		if m.Throughput > bestThroughput {
			bestThroughput = m.Throughput
			best = grid[i]
		}
	}
	return best, curve, nil
}

// FigureIDs lists the reproducible figures ("fig2" .. "fig12") in paper
// order.
func FigureIDs() []string { return experiments.IDs() }

// ExtensionIDs lists the extension experiments beyond the paper
// (scheduling remedy, modeling ablations and protocol comparisons on
// the executable engine); run them with RunFigure.
func ExtensionIDs() []string { return experiments.ExtIDs() }

// RunFigure evaluates one figure of the paper's evaluation section or
// one extension experiment, by id (FigureIDs, ExtensionIDs).
func RunFigure(id string, o Options) (Figure, error) { return experiments.Run(id, o) }

// Table1 renders the paper's input-parameter table.
func Table1() string { return experiments.Table1() }

// RenderText formats a figure as aligned tables plus ASCII charts.
func RenderText(f Figure) string { return experiments.RenderText(f) }

// RenderCSV formats a figure as CSV (figure,panel,series,x,y).
func RenderCSV(f Figure) string { return experiments.RenderCSV(f) }

// UniformWorkload returns the single-class workload of §3.1–§3.4.
func UniformWorkload(maxtransize int) []Class { return workload.Uniform(maxtransize) }

// SmallLargeMix returns the §3.6 mixed workload.
func SmallLargeMix(smallMax, largeMax int, fracSmall float64) []Class {
	return workload.SmallLargeMix(smallMax, largeMax, fracSmall)
}

// Prediction is the analytic (MVA-based) estimate of a configuration's
// steady state.
type Prediction = analytic.Prediction

// Predict analytically approximates the model's throughput, attained
// concurrency and blocking probability in microseconds — the
// closed-form companion to Run. Horizontal partitioning only; see
// internal/analytic for the approximation's assumptions.
func Predict(p Params) (Prediction, error) { return analytic.Predict(p) }

// PredictOptimalGranularity sweeps the standard granularity grid
// analytically and returns the predicted throughput-optimal number of
// locks with the whole curve.
func PredictOptimalGranularity(p Params) (best int, curve []Prediction, err error) {
	return analytic.OptimalGranularity(p, experiments.LtotSweep(p.DBSize))
}

// Observer receives simulation lifecycle events, one Event each; see
// WithObserver.
type Observer = trace.Observer

// Event is one simulation lifecycle event: its Kind ("arrive",
// "request", "grant", "deny" or "complete"), simulated time At,
// transaction Txn, and the fields that kind carries.
type Event = trace.Event

// ResponseCollector gathers per-transaction response times (an
// Observer), for quantiles and batch-means confidence intervals.
type ResponseCollector = model.ResponseCollector

// ClassCollector gathers per-class completions and response times for
// mixed workloads (an Observer).
type ClassCollector = model.ClassCollector

// NewTraceWriter returns an Observer streaming every simulation event
// to w as JSON lines; Close it after the run to flush.
func NewTraceWriter(w io.Writer) *trace.Writer { return trace.NewWriter(w) }

// Quantile returns the q-quantile of xs by linear interpolation (NaN
// for empty input).
func Quantile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

// BatchMeans summarizes autocorrelated within-run observations (e.g. a
// ResponseCollector's samples) with a batch-means 95% confidence
// interval.
func BatchMeans(xs []float64, batches int) (stats.Summary, error) {
	return stats.BatchMeans(xs, batches)
}

// Scheduler is a transaction-level admission policy (paper §3.7).
type Scheduler = sched.Policy

// FixedMPL returns a policy admitting at most limit concurrently active
// transactions.
func FixedMPL(limit int) Scheduler { return sched.FixedMPL{Limit: limit} }

// AdaptiveMPL returns the additive-increase/multiplicative-decrease
// admission policy adapting an MPL limit in [min, max] to the observed
// lock-denial rate.
func AdaptiveMPL(min, max, window int, targetDenialRate float64) (Scheduler, error) {
	return sched.NewAdaptiveMPL(min, max, window, targetDenialRate)
}
