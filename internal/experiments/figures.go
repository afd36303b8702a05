package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"granulock/internal/model"
	"granulock/internal/partition"
	"granulock/internal/sched"
	"granulock/internal/server"
	"granulock/internal/workload"
)

// variant is one series of a grid figure: its label and the change it
// makes to the figure's base configuration.
type variant struct {
	label string
	set   func(*model.Params)
}

// grid is a figure that sweeps ltot over LtotSweep against one series
// axis. Every paper figure and six of the extensions are grids.
type grid struct {
	title string
	// base, when set, changes BaseParams for every series.
	base   func(*model.Params)
	series []variant
	// panels name what each panel plots; run fills in their Series.
	panels []Panel
}

// run evaluates the ltot × series grid through sweep.
func (g grid) run(o Options) (Figure, error) {
	base := BaseParams()
	if g.base != nil {
		g.base(&base)
	}
	ltots := LtotSweep(base.DBSize)
	labels := make([]string, len(g.series))
	for i, s := range g.series {
		labels[i] = s.label
	}
	series, err := sweep(o, labels, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		g.series[si].set(&p)
		p.Ltot = ltots[pi]
		return p
	})
	if err != nil {
		return Figure{}, err
	}
	panels := make([]Panel, len(g.panels))
	for i, panel := range g.panels {
		panel.Series = series
		panels[i] = panel
	}
	return Figure{Title: g.title, XLabel: "number of locks (ltot)", Panels: panels}, nil
}

// ints is one series per value, labelled by format and applied by set.
func ints(format string, set func(*model.Params, int), vs ...int) []variant {
	out := make([]variant, len(vs))
	for i, v := range vs {
		out[i] = variant{fmt.Sprintf(format, v), func(p *model.Params) { set(p, v) }}
	}
	return out
}

// npros is one series per processor count of NprosSweep (§3.1).
func npros() []variant {
	return ints("npros=%d", func(p *model.Params, n int) { p.NPros = n }, NprosSweep()...)
}

// placement is one series per granule placement (best, random, worst)
// and processor count, the axis of Figures 9–12 (§3.5); the label names
// npros only when more than one is swept.
func placement(nps ...int) []variant {
	var out []variant
	for _, pl := range []workload.Placement{workload.PlacementBest, workload.PlacementRandom, workload.PlacementWorst} {
		for _, n := range nps {
			label := fmt.Sprintf("%s placement", pl)
			if len(nps) > 1 {
				label = fmt.Sprintf("%s placement, npros=%d", pl, n)
			}
			out = append(out, variant{label, func(p *model.Params) { p.Placement, p.NPros = pl, n }})
		}
	}
	return out
}

// floatXs converts an int sweep to float x coordinates.
func floatXs(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// The panels the grid figures plot.
var (
	throughput   = Panel{YLabel: "throughput (txn/time unit)", Metric: Throughput}
	response     = Panel{YLabel: "response time (time units)", Metric: MeanResponse}
	lockOverhead = Panel{YLabel: "lock overhead (CPU+I/O time units)", Metric: LockOverhead}
)

// experiment is one row of the figure table.
type experiment struct {
	id  string
	run func(Options) (Figure, error)
}

// table lists every experiment once, in presentation order: the paper's
// figures, then the extensions ("ext-" ids) beyond the paper — the §3.7
// remedy and the modeling ablations its discussion points at (DESIGN.md
// §5), and the protocol comparisons on the executable engine.
var table = []experiment{
	// §3.1: ltot × npros.
	{"fig2", grid{
		title:  "Figure 2: throughput and response time vs number of locks and processors",
		series: npros(),
		panels: []Panel{throughput, response},
	}.run},
	{"fig3", grid{
		title:  "Figure 3: useful I/O and useful CPU time vs number of locks and processors",
		series: npros(),
		panels: []Panel{
			{YLabel: "useful I/O time per processor", Metric: UsefulIO},
			{YLabel: "useful CPU time per processor", Metric: UsefulCPU},
		},
	}.run},
	{"fig4", grid{ // BaseParams already has maxtransize=500
		title:  "Figure 4: lock overhead vs number of locks and processors (maxtransize=500)",
		series: npros(),
		panels: []Panel{lockOverhead},
	}.run},
	{"fig5", grid{
		title:  "Figure 5: lock overhead vs number of locks and processors (maxtransize=50)",
		base:   func(p *model.Params) { p.MaxTransize = 50 },
		series: npros(),
		panels: []Panel{lockOverhead},
	}.run},
	// §3.2: ltot × transaction size.
	{"fig6", grid{
		title:  "Figure 6: throughput and response time vs number of locks and transaction size (npros=10)",
		series: ints("maxtransize=%d", func(p *model.Params, n int) { p.MaxTransize = n }, 50, 100, 500, 2500, 5000),
		panels: []Panel{throughput, response},
	}.run},
	// §3.3: ltot × lock I/O time; liotime=0 models a main-memory lock table.
	{"fig7", grid{
		title: "Figure 7: throughput vs number of locks and lock I/O time (npros=10)",
		series: []variant{
			{"lock I/O time = I/O time (0.2)", func(p *model.Params) { p.LockIOTime = 0.2 }},
			{"lock I/O time = 0.1", func(p *model.Params) { p.LockIOTime = 0.1 }},
			{"lock I/O time = 0 (in-memory)", func(p *model.Params) { p.LockIOTime = 0 }},
		},
		panels: []Panel{throughput},
	}.run},
	// §3.4: Figure 2's throughput panel under random partitioning.
	{"fig8", grid{
		title:  "Figure 8: throughput vs number of locks and processors (random partitioning)",
		base:   func(p *model.Params) { p.Partitioning = partition.Random },
		series: npros(),
		panels: []Panel{throughput},
	}.run},
	// §3.5: ltot × placement.
	{"fig9", grid{
		title:  "Figure 9: throughput vs number of locks and granule placement (maxtransize=500)",
		series: placement(1, 30),
		panels: []Panel{throughput},
	}.run},
	{"fig10", grid{
		title:  "Figure 10: throughput vs number of locks and granule placement (maxtransize=50)",
		base:   func(p *model.Params) { p.MaxTransize = 50 },
		series: placement(1, 30),
		panels: []Panel{throughput},
	}.run},
	// §3.6: 80% small (maxtransize=50), 20% large (maxtransize=500).
	{"fig11", grid{
		title:  "Figure 11: throughput vs number of locks and placement, 80% small / 20% large mix (npros=30)",
		base:   func(p *model.Params) { p.Classes = workload.SmallLargeMix(50, 500, 0.8) },
		series: placement(30),
		panels: []Panel{throughput},
	}.run},
	// §3.7: heavy load.
	{"fig12", grid{
		title:  "Figure 12: throughput vs number of locks and placement, heavy load (ntrans=200, npros=20)",
		base:   func(p *model.Params) { p.NTrans = 200 },
		series: placement(20),
		panels: []Panel{throughput},
	}.run},

	// The §3.7 remedy: admission control under Figure 12's heavy load.
	// Each cell gets a fresh policy, since policies are stateful.
	{"ext-sched", grid{
		title: "Extension: transaction-level scheduling under heavy load (ntrans=200, npros=20)",
		base:  func(p *model.Params) { p.NTrans, p.NPros = 200, 20 },
		series: []variant{
			{"unlimited", func(p *model.Params) { p.Scheduler = sched.Unlimited{} }},
			{"fixed MPL 2", func(p *model.Params) { p.Scheduler = sched.FixedMPL{Limit: 2} }},
			{"fixed MPL 8", func(p *model.Params) { p.Scheduler = sched.FixedMPL{Limit: 8} }},
			{"adaptive AIMD", func(p *model.Params) {
				a, err := sched.NewAdaptiveMPL(1, 200, 20, 0.3)
				if err != nil {
					panic(err) // static configuration; cannot fail
				}
				p.Scheduler = a
			}},
		},
		panels: []Panel{throughput},
	}.run},
	// The unspecified re-queue position of released transactions.
	{"ext-requeue", grid{
		title: "Extension: re-queue position of released transactions",
		series: []variant{
			{"released to head", func(p *model.Params) { p.ReleasedToTail = false }},
			{"released to tail", func(p *model.Params) { p.ReleasedToTail = true }},
		},
		panels: []Panel{throughput},
	}.run},
	// The paper's shared-lock-work assumption, at npros=30 where a
	// dedicated lock processor differs most.
	{"ext-locksharing", grid{
		title: "Extension: shared vs dedicated lock processing (npros=30)",
		base:  func(p *model.Params) { p.NPros = 30 },
		series: []variant{
			{"lock work shared by all processors", func(p *model.Params) { p.DedicatedLockProcessor = false }},
			{"dedicated lock processor", func(p *model.Params) { p.DedicatedLockProcessor = true }},
		},
		panels: []Panel{throughput},
	}.run},
	// The sub-transaction service discipline, which the companion
	// result (paper ref [3]) finds barely moves the curves.
	{"ext-discipline", grid{
		title: "Extension: sub-transaction service discipline (ref [3]: marginal effect)",
		series: []variant{
			{"FCFS", func(p *model.Params) { p.Discipline = server.FCFS }},
			{"SJF", func(p *model.Params) { p.Discipline = server.SJF }},
		},
		panels: []Panel{throughput},
	}.run},
	// Skewed access: conflicts behave as if only a (1−skew) fraction of
	// the granules received traffic, shifting the useful range of the
	// curves right and down.
	{"ext-hotspot", grid{
		title: "Extension: access skew (hot spots) vs the paper's uniform-access assumption",
		series: []variant{
			{"uniform access (paper)", func(p *model.Params) { p.AccessSkew = 0 }},
			{"skew 0.5", func(p *model.Params) { p.AccessSkew = 0.5 }},
			{"skew 0.9", func(p *model.Params) { p.AccessSkew = 0.9 }},
		},
		panels: []Panel{throughput},
	}.run},
	{"ext-responsetail", responseTail},
	// The light-to-heavy-load transition in one picture: nearly flat in
	// ltot at ntrans=5, fine granularity collapsed by ntrans=200 (§3.7
	// sees only the end point).
	{"ext-load", grid{
		title:  "Extension: load sensitivity — the light-to-heavy-load transition (npros=20)",
		base:   func(p *model.Params) { p.NPros = 20 },
		series: ints("ntrans=%d", func(p *model.Params, n int) { p.NTrans = n }, 5, 10, 50, 200),
		panels: []Panel{throughput},
	}.run},
	{"ext-mixclass", mixClass},
	{"ext-proto-contention", protoContention},
	{"ext-proto-granularity", protoGranularity},
	{"ext-proto-mpl", protoMPL},
}

// Table1 renders the input-parameter table.
func Table1() string {
	p := BaseParams()
	return fmt.Sprintf(`Table 1: input parameters used in the simulation experiments

  dbsize       %6d    accessible entities in the database
  ltot         1..%d  number of locks (swept per figure)
  ntrans       %6d    transactions in the closed system
  maxtransize  %6d    maximum transaction size (mean ~ %d)
  cputime      %6.2f    CPU time units per entity
  iotime       %6.2f    I/O time units per entity
  lcputime     %6.2f    CPU time units per lock
  liotime      %6.2f    I/O time units per lock
  npros        1..30    number of processors (swept per figure)
  tmax         %6.0f    simulated time units
`, p.DBSize, p.DBSize, p.NTrans, p.MaxTransize, p.MaxTransize/2,
		p.CPUTime, p.IOTime, p.LockCPUTime, p.LockIOTime, p.TMax)
}

// ids returns the table's ids that are (ext) or are not (!ext)
// extensions, in table order.
func ids(ext bool) []string {
	var out []string
	for _, e := range table {
		if strings.HasPrefix(e.id, "ext-") == ext {
			out = append(out, e.id)
		}
	}
	return out
}

// IDs returns every figure id in paper order (Table 1 is rendered
// separately by Table1).
func IDs() []string { return ids(false) }

// ExtIDs returns the extension experiment ids.
func ExtIDs() []string { return ids(true) }

// Run executes one experiment by id — a paper figure ("fig2".."fig12")
// or an extension ("ext-...", see ExtIDs) — and is the one place that
// sets Figure.ID. It labels o's sweep metrics with the id and, when a
// registry is attached, records the figure's wall time.
func Run(id string, o Options) (Figure, error) {
	i := slices.IndexFunc(table, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return Figure{}, fmt.Errorf("experiments: unknown experiment %q (known: %v and %v)", id, IDs(), ExtIDs())
	}
	o.figure = id
	start := time.Now()
	f, err := table[i].run(o)
	if err != nil {
		return Figure{}, err
	}
	f.ID = id
	if o.Metrics != nil {
		o.Metrics.NewGaugeVec("granulock_figure_seconds",
			"Wall time of the last completed run of each figure, in seconds.",
			"figure").With(id).Set(time.Since(start).Seconds())
	}
	return f, nil
}
