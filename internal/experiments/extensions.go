package experiments

import (
	"math"

	"granulock/internal/model"
	"granulock/internal/stats"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

// collect runs the ltot sweep of base with one collector C per point
// instead of Metrics: each point is one fanOut job whose replications
// run in turn under the point's collector, so their samples and counts
// pool. It returns the swept ltot values and the collectors.
func collect[C any, PC interface {
	*C
	trace.Observer
}](o Options, base model.Params) ([]int, []C, error) {
	o = o.normalize()
	if o.TMax > 0 {
		base.TMax = o.TMax
	}
	ltots := LtotSweep(base.DBSize)
	cs := make([]C, len(ltots))
	err := fanOut(o, len(ltots), func(pi int) error {
		p := base
		p.Ltot = ltots[pi]
		for r := 0; r < o.Replications; r++ {
			p.Seed = replicaSeed(o.Seed, r)
			if _, err := model.RunContext(o.Context, p, PC(&cs[pi])); err != nil {
				return err
			}
		}
		return nil
	})
	return ltots, cs, err
}

// responseTail reports the response-time distribution — median and
// 95th percentile — across the granularity sweep. The paper reports
// only means; the tail shows that mistuned granularity hurts the worst
// transactions disproportionately. Each point's quantile is carried in
// the synthetic Metrics.MeanResponse field of its Point (the panel's
// accessor), computed from the point's pooled response sample.
func responseTail(o Options) (Figure, error) {
	quantiles := []float64{0.5, 0.95}
	labels := []string{"median (P50)", "tail (P95)"}
	ltots, rcs, err := collect[model.ResponseCollector](o, BaseParams())
	if err != nil {
		return Figure{}, err
	}
	series := make([]Series, len(quantiles))
	for qi, label := range labels {
		series[qi] = Series{Label: label, Points: make([]Point, len(ltots))}
	}
	for pi, ltot := range ltots {
		// One sort for all quantiles of this point's response sample.
		for qi, v := range stats.Quantiles(rcs[pi].Responses, quantiles...) {
			if math.IsNaN(v) {
				v = 0 // no completions at this point
			}
			series[qi].Points[pi] = Point{X: float64(ltot), M: model.Metrics{MeanResponse: v}}
		}
	}
	return Figure{
		Title:  "Extension: response-time distribution vs number of locks (npros=10)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "response time quantile (time units)", Metric: MeanResponse, Series: series},
		},
	}, nil
}

// mixClass decomposes the §3.6 mixed-workload result by class:
// per-class throughput across the granularity sweep (Figure 11 reports
// only the aggregate). It shows the aggregate collapse is driven by
// large transactions both completing slowly themselves and dragging the
// small ones down behind their locks. A point's counts pool its
// replications, so its throughput divides by reps·TMax.
func mixClass(o Options) (Figure, error) {
	o = o.normalize()
	base := BaseParams()
	base.NPros = 30
	base.Classes = workload.SmallLargeMix(50, 500, 0.8)
	labels := []string{"small class (80%, maxtransize=50)", "large class (20%, maxtransize=500)"}
	ltots, ccs, err := collect[model.ClassCollector](o, base)
	if err != nil {
		return Figure{}, err
	}
	tmax := base.TMax
	if o.TMax > 0 {
		tmax = o.TMax
	}
	span := float64(o.Replications) * tmax
	series := make([]Series, len(labels))
	for class, label := range labels {
		series[class] = Series{Label: label, Points: make([]Point, len(ltots))}
		for pi, ltot := range ltots {
			count := 0
			if class < len(ccs[pi].Completions) {
				count = ccs[pi].Completions[class]
			}
			series[class].Points[pi] = Point{
				X: float64(ltot),
				M: model.Metrics{Throughput: float64(count) / span, MeanResponse: ccs[pi].MeanResponse(class)},
			}
		}
	}
	return Figure{
		Title:  "Extension: Figure 11's 80/20 mix decomposed by class (npros=30)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "per-class throughput (txn/time unit)", Metric: Throughput, Series: series},
			{YLabel: "per-class response time (time units)", Metric: MeanResponse, Series: series},
		},
	}, nil
}
