package experiments

import (
	"fmt"
	"strings"
	"testing"

	"granulock/internal/obs"
)

func TestExtIDs(t *testing.T) {
	ids := ExtIDs()
	if len(ids) != 11 {
		t.Fatalf("%d extension ids", len(ids))
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "ext-") {
			t.Fatalf("extension id %q lacks ext- prefix", id)
		}
	}
	if _, err := Run("ext-nope", fast()); err == nil {
		t.Fatal("unknown extension accepted")
	}
}

func TestRunDispatchesExtensions(t *testing.T) {
	f, err := Run("ext-requeue", fast())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "ext-requeue" || len(f.Panels) != 1 || len(f.Panels[0].Series) != 2 {
		t.Fatalf("structure: %+v", f.ID)
	}
}

func TestExtSchedulingRescuesFineGranularity(t *testing.T) {
	o := fast()
	o.TMax = 600 // heavy load needs a longer horizon to show the effect
	f, err := Run("ext-sched", o)
	if err != nil {
		t.Fatal(err)
	}
	panel := f.Panels[0]
	at := func(label string, x float64) float64 {
		for _, s := range panel.Series {
			if s.Label == label {
				for _, pt := range s.Points {
					if pt.X == x {
						return panel.Metric(pt.M)
					}
				}
			}
		}
		t.Fatalf("series %q x=%v missing", label, x)
		return 0
	}
	unlimited := at("unlimited", 5000)
	mpl2 := at("fixed MPL 2", 5000)
	if mpl2 <= unlimited {
		t.Fatalf("MPL 2 (%v) did not beat unlimited (%v) at entity-level locks under heavy load", mpl2, unlimited)
	}
	adaptive := at("adaptive AIMD", 5000)
	if adaptive <= unlimited {
		t.Fatalf("adaptive (%v) did not beat unlimited (%v)", adaptive, unlimited)
	}
}

func TestExtDisciplineMarginalEffect(t *testing.T) {
	// Ref [3]'s claim, reproduced: SJF vs FCFS moves throughput only
	// marginally at every granularity.
	o := fast()
	o.TMax = 500
	f, err := Run("ext-discipline", o)
	if err != nil {
		t.Fatal(err)
	}
	panel := f.Panels[0]
	fcfs, sjf := panel.Series[0], panel.Series[1]
	for i := range fcfs.Points {
		a := panel.Metric(fcfs.Points[i].M)
		b := panel.Metric(sjf.Points[i].M)
		hi := a
		if b > hi {
			hi = b
		}
		if hi == 0 {
			continue
		}
		if diff := (a - b) / hi; diff < -0.15 || diff > 0.15 {
			t.Fatalf("ltot=%v: FCFS %v vs SJF %v differ by more than 15%%", fcfs.Points[i].X, a, b)
		}
	}
}

func TestExtHotSpotLowersThroughput(t *testing.T) {
	o := fast()
	o.TMax = 400
	f, err := Run("ext-hotspot", o)
	if err != nil {
		t.Fatal(err)
	}
	panel := f.Panels[0]
	uniform, skewed := panel.Series[0], panel.Series[2]
	// At moderate granularity, heavy skew must cost throughput (the
	// effective conflict space shrinks 10x).
	for i, pt := range uniform.Points {
		if pt.X != 100 {
			continue
		}
		u := panel.Metric(pt.M)
		s := panel.Metric(skewed.Points[i].M)
		if s >= u {
			t.Fatalf("skew 0.9 (%v) not below uniform (%v) at ltot=100", s, u)
		}
	}
	// At ltot=1 all variants coincide (one lock either way).
	u0 := panel.Metric(uniform.Points[0].M)
	s0 := panel.Metric(skewed.Points[0].M)
	if u0 != s0 {
		t.Fatalf("skew changed the whole-database-lock case: %v vs %v", u0, s0)
	}
}

func TestExtResponseTail(t *testing.T) {
	o := fast()
	o.TMax = 400
	f, err := Run("ext-responsetail", o)
	if err != nil {
		t.Fatal(err)
	}
	panel := f.Panels[0]
	if len(panel.Series) != 2 {
		t.Fatalf("series %d", len(panel.Series))
	}
	p50, p95 := panel.Series[0], panel.Series[1]
	for i := range p50.Points {
		lo := panel.Metric(p50.Points[i].M)
		hi := panel.Metric(p95.Points[i].M)
		if lo == 0 && hi == 0 {
			continue // no completions at this extreme point
		}
		if hi < lo {
			t.Fatalf("P95 (%v) below P50 (%v) at ltot=%v", hi, lo, p50.Points[i].X)
		}
	}
	// At entity-level locking the tail must exceed the well-tuned tail.
	tailAt := func(x float64) float64 {
		for _, pt := range p95.Points {
			if pt.X == x {
				return panel.Metric(pt.M)
			}
		}
		return 0
	}
	if tuned, fine := tailAt(20), tailAt(5000); fine > 0 && tuned > 0 && fine <= tuned {
		t.Fatalf("P95 at ltot=5000 (%v) not above ltot=20 (%v)", fine, tuned)
	}
}

func TestExtMixClass(t *testing.T) {
	o := fast()
	o.TMax = 500
	f, err := Run("ext-mixclass", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels) != 2 || len(f.Panels[0].Series) != 2 {
		t.Fatalf("structure: %d panels", len(f.Panels))
	}
	thr := f.Panels[0]
	small, large := thr.Series[0], thr.Series[1]
	for i := range small.Points {
		s := thr.Metric(small.Points[i].M)
		l := thr.Metric(large.Points[i].M)
		// Small transactions are 80% of arrivals and individually
		// faster: their throughput dominates at every granularity.
		if s <= l {
			t.Fatalf("ltot=%v: small-class throughput %v not above large-class %v",
				small.Points[i].X, s, l)
		}
	}
	resp := f.Panels[1]
	for i := range small.Points {
		if s, l := resp.Metric(resp.Series[0].Points[i].M), resp.Metric(resp.Series[1].Points[i].M); s > 0 && l > 0 && s >= l {
			t.Fatalf("ltot=%v: small-class response %v not below large-class %v",
				small.Points[i].X, s, l)
		}
	}
}

func TestExtLockSharingStructure(t *testing.T) {
	f, err := Run("ext-locksharing", fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels[0].Series) != 2 {
		t.Fatalf("series count %d", len(f.Panels[0].Series))
	}
	text := RenderText(f)
	if !strings.Contains(text, "dedicated lock processor") {
		t.Fatal("render missing series label")
	}
}

// TestReplicationsReachCollectorFigures checks that the figures built
// on observers rather than Metrics honour Options.Replications: a
// second replication must move their points, and their cells must be
// counted like any sweep's.
func TestReplicationsReachCollectorFigures(t *testing.T) {
	for _, c := range []struct {
		id    string
		panel int
	}{
		{"ext-responsetail", 0},
		{"ext-mixclass", 0},
		{"ext-proto-granularity", 2}, // the simulator panel
	} {
		o := fast()
		one, err := Run(c.id, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Replications = 2
		o.Metrics = obs.NewRegistry()
		two, err := Run(c.id, o)
		if err != nil {
			t.Fatal(err)
		}
		if simPoints(one.Panels[c.panel]) == simPoints(two.Panels[c.panel]) {
			t.Errorf("%s: Replications 2 gave the same points as 1", c.id)
		}
		done := o.Metrics.NewCounterVec("granulock_sweep_cells_completed_total",
			"Simulation cells completed by parameter sweeps.", "figure").With(c.id).Value()
		if done == 0 {
			t.Errorf("%s: no sweep cells counted", c.id)
		}
	}
}

// simPoints renders the panel's simulator series (every series but the
// engine's) as text, for comparison.
func simPoints(p Panel) string {
	var b strings.Builder
	for _, s := range p.Series {
		if strings.HasPrefix(s.Label, "engine") {
			continue
		}
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%s %v %v\n", s.Label, pt.X, p.Metric(pt.M))
		}
	}
	return b.String()
}
