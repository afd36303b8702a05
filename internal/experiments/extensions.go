package experiments

import (
	"fmt"
	"math"

	"granulock/internal/model"
	"granulock/internal/sched"
	"granulock/internal/server"
	"granulock/internal/stats"
	"granulock/internal/workload"
)

// Extension experiments go beyond the paper's figures: they evaluate
// the remedies and ablations its discussion points at (§3.7 and
// DESIGN.md §5) with the same harness and rendering as the paper
// figures.

// ExtScheduling reproduces the §3.7 remedy as a figure: throughput vs
// ltot under heavy load (ntrans=200, npros=20) for no admission
// control, fixed MPL limits, and the adaptive AIMD policy.
func ExtScheduling(o Options) (Figure, error) {
	base := BaseParams()
	base.NTrans = 200
	base.NPros = 20

	type policy struct {
		label string
		mk    func() sched.Policy
	}
	policies := []policy{
		{"unlimited", func() sched.Policy { return sched.Unlimited{} }},
		{"fixed MPL 2", func() sched.Policy { return sched.FixedMPL{Limit: 2} }},
		{"fixed MPL 8", func() sched.Policy { return sched.FixedMPL{Limit: 8} }},
		{"adaptive AIMD", func() sched.Policy {
			p, err := sched.NewAdaptiveMPL(1, 200, 20, 0.3)
			if err != nil {
				panic(err) // static configuration; cannot fail
			}
			return p
		}},
	}
	labels := make([]string, len(policies))
	for i, p := range policies {
		labels[i] = p.label
	}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		p.Scheduler = policies[si].mk() // fresh policy per run: they are stateful
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-sched",
		Title:  "Extension: transaction-level scheduling under heavy load (ntrans=200, npros=20)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtRequeue ablates the unspecified re-queue position of released
// transactions (head vs tail of the pending queue) at a high-conflict
// configuration.
func ExtRequeue(o Options) (Figure, error) {
	base := BaseParams()
	labels := []string{"released to head", "released to tail"}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		p.ReleasedToTail = si == 1
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-requeue",
		Title:  "Extension: re-queue position of released transactions",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtLockSharing ablates the paper's shared-lock-work assumption
// against a dedicated lock processor, at npros=30 where the difference
// is largest.
func ExtLockSharing(o Options) (Figure, error) {
	base := BaseParams()
	base.NPros = 30
	labels := []string{"lock work shared by all processors", "dedicated lock processor"}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		p.DedicatedLockProcessor = si == 1
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-locksharing",
		Title:  "Extension: shared vs dedicated lock processing (npros=30)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtDiscipline ablates the sub-transaction service discipline (FCFS vs
// shortest-job-first), reproducing the companion result (paper ref [3])
// that it barely moves the granularity curves.
func ExtDiscipline(o Options) (Figure, error) {
	base := BaseParams()
	labels := []string{"FCFS", "SJF"}
	disciplines := []server.Discipline{server.FCFS, server.SJF}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		p.Discipline = disciplines[si]
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-discipline",
		Title:  "Extension: sub-transaction service discipline (ref [3]: marginal effect)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtHotSpot extends the uniform-access assumption with skewed access:
// conflicts behave as if only a (1−skew) fraction of the granules
// received traffic. More skew means a granule count must be larger to
// deliver the same concurrency, shifting the useful operating range of
// the curves right and down.
func ExtHotSpot(o Options) (Figure, error) {
	base := BaseParams()
	skews := []float64{0, 0.5, 0.9}
	labels := []string{"uniform access (paper)", "skew 0.5", "skew 0.9"}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		p.AccessSkew = skews[si]
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-hotspot",
		Title:  "Extension: access skew (hot spots) vs the paper's uniform-access assumption",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtResponseTail reports the response-time distribution — median and
// 95th percentile — across the granularity sweep. The paper reports
// only means; the tail shows that mistuned granularity hurts the worst
// transactions disproportionately. Each point's quantile is carried in
// the synthetic Metrics.MeanResponse field of its Point (the panels'
// accessor), computed from a per-run response collector.
func ExtResponseTail(o Options) (Figure, error) {
	o = o.normalize()
	base := BaseParams()
	if o.TMax > 0 {
		base.TMax = o.TMax
	}
	base.Seed = o.Seed
	ltots := LtotSweep(base.DBSize)
	quantiles := []float64{0.5, 0.95}
	labels := []string{"median (P50)", "tail (P95)"}

	series := make([]Series, len(quantiles))
	for qi, label := range labels {
		series[qi] = Series{Label: label, Points: make([]Point, len(ltots))}
	}
	for pi, ltot := range ltots {
		p := base
		p.Ltot = ltot
		var rc model.ResponseCollector
		if _, err := model.RunContext(o.Context, p, &rc); err != nil {
			return Figure{}, err
		}
		// One sort for all quantiles of this point's response sample.
		vs := stats.Quantiles(rc.Responses, quantiles...)
		for qi, v := range vs {
			if math.IsNaN(v) {
				v = 0 // no completions at this point
			}
			series[qi].Points[pi] = Point{X: float64(ltot), M: model.Metrics{MeanResponse: v}}
		}
	}
	return Figure{
		ID:     "ext-responsetail",
		Title:  "Extension: response-time distribution vs number of locks (npros=10)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "response time quantile (time units)", Metric: MeanResponse, Series: series},
		},
	}, nil
}

// ExtLoad sweeps the system load (ntrans) to trace the paper's
// light-load → heavy-load transition in one picture: at ntrans=5 the
// curves are nearly flat in ltot, by ntrans=200 fine granularity has
// collapsed (§3.7 sees only the end point).
func ExtLoad(o Options) (Figure, error) {
	base := BaseParams()
	base.NPros = 20
	loads := []int{5, 10, 50, 200}
	labels := make([]string, len(loads))
	for i, n := range loads {
		labels[i] = fmt.Sprintf("ntrans=%d", n)
	}
	ltots := LtotSweep(base.DBSize)
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.NTrans = loads[si]
		p.Ltot = ltots[pi]
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ext-load",
		Title:  "Extension: load sensitivity — the light-to-heavy-load transition (npros=20)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "throughput (txn/time unit)", Metric: Throughput, Series: series},
		},
	}, nil
}

// ExtMixClass decomposes the §3.6 mixed-workload result by class:
// per-class throughput across the granularity sweep (Figure 11 reports
// only the aggregate). It shows the aggregate collapse is driven by
// large transactions both completing slowly themselves and dragging the
// small ones down behind their locks.
func ExtMixClass(o Options) (Figure, error) {
	o = o.normalize()
	base := BaseParams()
	base.NPros = 30
	base.Classes = workload.SmallLargeMix(50, 500, 0.8)
	if o.TMax > 0 {
		base.TMax = o.TMax
	}
	base.Seed = o.Seed
	ltots := LtotSweep(base.DBSize)
	labels := []string{"small class (80%, maxtransize=50)", "large class (20%, maxtransize=500)"}

	series := make([]Series, len(labels))
	for i, label := range labels {
		series[i] = Series{Label: label, Points: make([]Point, len(ltots))}
	}
	for pi, ltot := range ltots {
		p := base
		p.Ltot = ltot
		var cc model.ClassCollector
		if _, err := model.RunContext(o.Context, p, &cc); err != nil {
			return Figure{}, err
		}
		for class := 0; class < len(labels); class++ {
			count := 0
			if class < len(cc.Completions) {
				count = cc.Completions[class]
			}
			series[class].Points[pi] = Point{
				X: float64(ltot),
				M: model.Metrics{Throughput: float64(count) / p.TMax, MeanResponse: cc.MeanResponse(class)},
			}
		}
	}
	return Figure{
		ID:     "ext-mixclass",
		Title:  "Extension: Figure 11's 80/20 mix decomposed by class (npros=30)",
		XLabel: "number of locks (ltot)",
		Panels: []Panel{
			{YLabel: "per-class throughput (txn/time unit)", Metric: Throughput, Series: series},
			{YLabel: "per-class response time (time units)", Metric: MeanResponse, Series: series},
		},
	}, nil
}

// extRegistry lists the extension experiments in presentation order.
var extRegistry = []struct {
	id  string
	run runner
}{
	{"ext-sched", ExtScheduling},
	{"ext-requeue", ExtRequeue},
	{"ext-locksharing", ExtLockSharing},
	{"ext-discipline", ExtDiscipline},
	{"ext-hotspot", ExtHotSpot},
	{"ext-responsetail", ExtResponseTail},
	{"ext-load", ExtLoad},
	{"ext-mixclass", ExtMixClass},
	{"ext-proto-contention", ExtProtoContention},
	{"ext-proto-granularity", ExtProtoGranularity},
	{"ext-proto-mpl", ExtProtoMPL},
}

// ExtIDs returns the extension experiment ids.
func ExtIDs() []string {
	out := make([]string, len(extRegistry))
	for i, r := range extRegistry {
		out[i] = r.id
	}
	return out
}
