package experiments

import (
	"runtime"
	"strings"
	"testing"

	"granulock/internal/model"
)

// fast returns options that keep sweep tests quick but still
// discriminating.
func fast() Options {
	return Options{TMax: 200, Seed: 1, Replications: 1}
}

func TestLtotSweepShape(t *testing.T) {
	xs := LtotSweep(5000)
	if xs[0] != 1 {
		t.Fatalf("sweep must start at 1: %v", xs)
	}
	if xs[len(xs)-1] != 5000 {
		t.Fatalf("sweep must end at dbsize: %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("sweep not increasing: %v", xs)
		}
	}
}

func TestLtotSweepSmallDB(t *testing.T) {
	xs := LtotSweep(7)
	want := []int{1, 2, 5, 7}
	if len(xs) != len(want) {
		t.Fatalf("sweep %v, want %v", xs, want)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("sweep %v, want %v", xs, want)
		}
	}
}

func TestBaseParamsValid(t *testing.T) {
	p := BaseParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("BaseParams invalid: %v", err)
	}
}

func TestSweepStructure(t *testing.T) {
	base := BaseParams()
	ltots := []int{1, 100, 5000}
	series, err := sweep(fast(), []string{"a", "b"}, floatXs(ltots), func(si, pi int) model.Params {
		p := base
		p.NPros = 1 + si*9
		p.Ltot = ltots[pi]
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		for i, p := range s.Points {
			if p.X != float64(ltots[i]) {
				t.Fatalf("point x %v, want %d", p.X, ltots[i])
			}
			// At a short horizon with npros=1 and entity-level locks the
			// first transaction may legitimately still be in flight, so
			// require lock activity rather than completions.
			if p.M.LockRequests <= 0 {
				t.Fatalf("point (%q, %v) shows no activity", s.Label, p.X)
			}
		}
	}
}

// TestSweepDeterministicAcrossParallelism runs a sweep on eight
// workers and checks every cell against a direct model.Run. The seed
// is one no other test uses, so the cells are simulated here rather
// than served from the cell cache.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	base := BaseParams()
	ltots := []int{1, 100}
	o := fast()
	o.Seed = 424242
	o.Replications = 2
	s, err := sweep(o, []string{"a"}, []float64{1, 100}, func(si, pi int) model.Params {
		p := base
		p.Ltot = ltots[pi]
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, pt := range s[0].Points {
		var ms []model.Metrics
		for r := 0; r < o.Replications; r++ {
			p := base
			p.Ltot = ltots[j]
			p.TMax = o.TMax
			p.Seed = o.Seed + uint64(r)*1_000_003
			m, err := model.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		if want, _ := Summarize(ms); pt.M != want {
			t.Fatalf("parallel sweep diverged at point %d:\n got %+v\nwant %+v", j, pt.M, want)
		}
	}
}

func TestSweepReplicationsAveraged(t *testing.T) {
	base := BaseParams()
	o := fast()
	o.Replications = 3
	series, err := sweep(o, []string{"a"}, []float64{100}, func(si, pi int) model.Params {
		p := base
		p.Ltot = 100
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := series[0].Points[0]
	if pt.ThroughputCI <= 0 {
		t.Fatalf("replicated point has zero CI: %+v", pt)
	}
}

func TestSweepPropagatesValidationErrors(t *testing.T) {
	_, err := sweep(fast(), []string{"a"}, []float64{1}, func(si, pi int) model.Params {
		return model.Params{} // invalid
	})
	if err == nil {
		t.Fatal("invalid params not rejected")
	}
}

func TestAverageSingle(t *testing.T) {
	m := model.Metrics{Throughput: 0.5, TotCom: 10}
	avg, rep := Summarize([]model.Metrics{m})
	if avg != m || rep.Throughput.CI95 != 0 {
		t.Fatal("single-element average not identity")
	}
}

func TestAverageMultiple(t *testing.T) {
	a := model.Metrics{Throughput: 0.4, TotCom: 10, LockIOs: 2}
	b := model.Metrics{Throughput: 0.6, TotCom: 20, LockIOs: 4}
	avg, rep := Summarize([]model.Metrics{a, b})
	if avg.Throughput != 0.5 || avg.TotCom != 15 || avg.LockIOs != 3 {
		t.Fatalf("average %+v", avg)
	}
	if rep.Throughput.CI95 <= 0 {
		t.Fatal("zero CI for differing replications")
	}
}

func TestTable1Rendered(t *testing.T) {
	s := Table1()
	for _, want := range []string{"dbsize", "5000", "ntrans", "cputime", "0.05", "liotime"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestIDsAndRunDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 11 {
		t.Fatalf("%d figure ids, want 11 (fig2..fig12)", len(ids))
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "fig12" {
		t.Fatalf("ids out of order: %v", ids)
	}
	seen := make(map[string]bool)
	for _, id := range append(ids, ExtIDs()...) {
		if seen[id] {
			t.Fatalf("id %q listed twice", id)
		}
		seen[id] = true
	}
	if _, err := Run("nope", fast()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFigure7Structure(t *testing.T) {
	f, err := Run("fig7", fast())
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig7" || len(f.Panels) != 1 || len(f.Panels[0].Series) != 3 {
		t.Fatalf("figure 7 structure: %d panels", len(f.Panels))
	}
	// liotime=0 series must have zero lock I/O everywhere.
	for _, pt := range f.Panels[0].Series[2].Points {
		if pt.M.LockIOs != 0 {
			t.Fatalf("in-memory lock table shows lock I/O: %+v", pt.M)
		}
	}
}

func TestFigure11UsesMix(t *testing.T) {
	f, err := Run("fig11", fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Panels[0].Series) != 3 {
		t.Fatalf("figure 11 wants 3 placement series, got %d", len(f.Panels[0].Series))
	}
	for _, s := range f.Panels[0].Series {
		if !strings.Contains(s.Label, "placement") {
			t.Fatalf("series label %q", s.Label)
		}
	}
}

func TestRenderTextAndCSV(t *testing.T) {
	f, err := Run("fig7", fast())
	if err != nil {
		t.Fatal(err)
	}
	text := RenderText(f)
	for _, want := range []string{"Figure 7", "ltot", "throughput", "in-memory"} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q", want)
		}
	}
	csv := RenderCSV(f)
	if !strings.HasPrefix(csv, "figure,panel,series,x,y\n") {
		t.Fatalf("csv header: %q", csv[:40])
	}
	lines := strings.Count(csv, "\n")
	wantLines := 1 + 3*len(LtotSweep(5000))
	if lines != wantLines {
		t.Fatalf("csv has %d lines, want %d", lines, wantLines)
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain escaped")
	}
	if csvEscape(`a,b`) != `"a,b"` {
		t.Fatal("comma not quoted")
	}
	if csvEscape(`a"b`) != `"a""b"` {
		t.Fatal("quote not doubled")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{0.005, "5.00e-03"},
		{0.1234, "0.1234"},
		{12.3, "12.30"},
		{12345, "12345"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
