package granulock_test

import (
	"context"
	"errors"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"granulock"
)

func shortParams() granulock.Params {
	p := granulock.DefaultParams()
	p.TMax = 200
	p.NPros = 5
	p.Ltot = 50
	return p
}

// TestRunOptionsEquivalence is the golden-run guarantee of the
// redesigned facade: attaching a metrics registry, a context, or both
// must not change the simulation's results by one bit.
func TestRunOptionsEquivalence(t *testing.T) {
	p := shortParams()
	plain, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	reg := granulock.NewRegistry()
	instrumented, err := granulock.Run(p, granulock.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if plain != instrumented {
		t.Fatalf("WithMetrics changed the run:\nplain        %+v\ninstrumented %+v", plain, instrumented)
	}
	bounded, err := granulock.Run(p, granulock.WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if plain != bounded {
		t.Fatalf("WithContext changed the run:\nplain   %+v\nbounded %+v", plain, bounded)
	}
}

// TestRunWithMetricsPopulatesRegistry checks the instrumented run
// writes the sim families: event counters, the response histogram, and
// the output-parameter gauges.
func TestRunWithMetricsPopulatesRegistry(t *testing.T) {
	p := shortParams()
	reg := granulock.NewRegistry()
	m, err := granulock.Run(p, granulock.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Value("granulock_sim_events_total", map[string]string{"kind": "complete"}); !ok || v <= 0 {
		t.Fatalf("complete counter = %v (present %v)", v, ok)
	}
	if v, ok := reg.Value("granulock_sim_throughput", nil); !ok || v != m.Throughput {
		t.Fatalf("throughput gauge = %v (present %v), want %v", v, ok, m.Throughput)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "granulock_sim_response_time_units_count") {
		t.Fatal("response histogram missing from exposition")
	}
}

// TestMetricsExpositionPinned pins the text exposition a seeded
// instrumented run leaves in its registry, byte for byte: every event
// counter, both histograms and the output gauges.
func TestMetricsExpositionPinned(t *testing.T) {
	p := granulock.DefaultParams()
	p.Seed, p.NPros, p.Ltot, p.TMax = 7, 10, 100, 300
	reg := granulock.NewRegistry()
	if _, err := granulock.Run(p, granulock.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if _, err := reg.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	const want = uint64(0x34f7c66174d92e48)
	if got := h.Sum64(); got != want {
		var b strings.Builder
		reg.WriteTo(&b)
		t.Fatalf("exposition hash %#x, want %#x:\n%s", got, want, b.String())
	}
}

// TestRunObserverAndMetricsTee checks both hooks see the run.
func TestRunObserverAndMetricsTee(t *testing.T) {
	p := shortParams()
	reg := granulock.NewRegistry()
	var collector granulock.ResponseCollector
	if _, err := granulock.Run(p, granulock.WithObserver(&collector), granulock.WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if len(collector.Responses) == 0 {
		t.Fatal("observer saw no completions through the tee")
	}
	if v, ok := reg.Value("granulock_sim_events_total", map[string]string{"kind": "complete"}); !ok || v != float64(len(collector.Responses)) {
		t.Fatalf("metrics completions %v (present %v) != observer samples %d", v, ok, len(collector.Responses))
	}
}

// TestRunContextCancellation checks a cancelled context aborts the run
// with its error.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := shortParams()
	if _, err := granulock.Run(p, granulock.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, _, err := granulock.OptimalGranularityContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled tuning returned %v, want context.Canceled", err)
	}
	if _, err := granulock.Run(p, granulock.WithContext(ctx), granulock.WithReplications(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replicated run returned %v, want context.Canceled", err)
	}
	// A sweep figure and the two extensions that run one observed cell
	// at a time.
	for _, id := range []string{"fig7", "ext-responsetail", "ext-mixclass"} {
		if _, err := granulock.RunFigure(id, granulock.Options{TMax: 150, Context: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled %s returned %v, want context.Canceled", id, err)
		}
	}
}

// TestRunContextDeadline checks a deadline that fires mid-run aborts
// promptly with DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	p := granulock.DefaultParams()
	p.TMax = 1e7 // far more work than a millisecond allows
	start := time.Now()
	_, err := granulock.Run(p, granulock.WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunReplicationsOption checks the variadic replication path and
// its compatibility rules.
func TestRunReplicationsOption(t *testing.T) {
	p := shortParams()
	var rep granulock.Replicated
	avg, err := granulock.Run(p, granulock.WithReplications(3), granulock.WithReplicatedSummary(&rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("%d runs", len(rep.Runs))
	}
	// The returned mean and the summary's are one computation.
	if avg.Throughput != rep.Throughput.Mean {
		t.Fatalf("averaged throughput %v != summary mean %v", avg.Throughput, rep.Throughput.Mean)
	}
	var collector granulock.ResponseCollector
	if _, err := granulock.Run(p, granulock.WithReplications(2), granulock.WithObserver(&collector)); err == nil {
		t.Fatal("observer + replications accepted")
	}
	if _, err := granulock.Run(p, granulock.WithReplications(0)); err == nil {
		t.Fatal("zero replications accepted")
	}
}

// TestStatefulSchedulerIsPerRun pins that every run adapts its own copy
// of the admission policy: an AdaptiveMPL shared by two sequential runs,
// or by the concurrent replications of one run, carries no admission
// state from one run into another (and, under -race, is no data race).
func TestStatefulSchedulerIsPerRun(t *testing.T) {
	p := shortParams()
	p.Ltot = 5 // denials, so the policy adapts
	pol, err := granulock.AdaptiveMPL(1, 10, 20, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	p.Scheduler = pol
	first, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Throughput != second.Throughput || first.TotCom != second.TotCom {
		t.Fatalf("sequential runs differ: throughput %v then %v, totcom %v then %v",
			first.Throughput, second.Throughput, first.TotCom, second.TotCom)
	}
	var rep granulock.Replicated
	if _, err := granulock.Run(p, granulock.WithReplications(4), granulock.WithReplicatedSummary(&rep)); err != nil {
		t.Fatal(err)
	}
	for i, m := range rep.Runs {
		alone := p
		alone.Seed = p.Seed + uint64(i)*1_000_003 // the one replication seed rule
		want, err := granulock.Run(alone)
		if err != nil {
			t.Fatal(err)
		}
		if m.Throughput != want.Throughput || m.TotCom != want.TotCom {
			t.Errorf("replication %d: throughput %v, alone %v", i, m.Throughput, want.Throughput)
		}
	}
}

// TestReplicationsOfAdjacentSeedsAreDisjoint pins the replication
// seed rule: the replications of base seeds 1 and 2 share no run
// (under Seed+r, seed 1's replication r+1 was seed 2's replication r),
// and replication 0 of a run at seed 0 is the single run at seed 0.
func TestReplicationsOfAdjacentSeedsAreDisjoint(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 150
	runs := make(map[uint64][]granulock.Metrics)
	for _, seed := range []uint64{0, 1, 2} {
		p.Seed = seed
		r, err := replicated(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		runs[seed] = r.Runs
	}
	for i, a := range runs[1] {
		for j, b := range runs[2] {
			if a == b {
				t.Errorf("seed 1 replication %d is seed 2 replication %d", i, j)
			}
		}
	}
	p.Seed = 0
	single, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0][0] != single {
		t.Errorf("replication 0 at seed 0 %+v, single run at seed 0 %+v", runs[0][0], single)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	p := granulock.DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.DBSize != 5000 || p.NTrans != 10 || p.IOTime != 0.2 {
		t.Fatalf("defaults drifted from Table 1: %+v", p)
	}
}

func TestSimulateMatchesModel(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	a, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := granulock.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("facade runs not deterministic")
	}
}

// replicated runs p over reps seeds and returns the full summary.
func replicated(p granulock.Params, reps int) (granulock.Replicated, error) {
	var r granulock.Replicated
	_, err := granulock.Run(p, granulock.WithReplications(reps), granulock.WithReplicatedSummary(&r))
	return r, err
}

func TestSimulateReplicatedValidation(t *testing.T) {
	p := granulock.DefaultParams()
	if _, err := replicated(p, 0); err == nil {
		t.Fatal("reps=0 accepted")
	}
	p.DBSize = 0
	if _, err := replicated(p, 2); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestSimulateReplicatedSummaries(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	r, err := replicated(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 4 {
		t.Fatalf("%d runs", len(r.Runs))
	}
	if r.Throughput.N != 4 || r.Throughput.Mean <= 0 {
		t.Fatalf("throughput summary %+v", r.Throughput)
	}
	if r.Throughput.CI95 <= 0 {
		t.Fatalf("zero CI across distinct seeds: %+v", r.Throughput)
	}
	if r.MeanResponse.Mean <= 0 || r.LockOverhead.Mean <= 0 {
		t.Fatal("summaries not populated")
	}
	// Replications must use distinct seeds.
	if r.Runs[0] == r.Runs[1] {
		t.Fatal("replications identical")
	}
}

func TestSimulateReplicatedDeterministic(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 200
	a, err := replicated(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The interruptible path must produce the same ensemble.
	var b granulock.Replicated
	if _, err := granulock.Run(p, granulock.WithReplications(3), granulock.WithReplicatedSummary(&b),
		granulock.WithContext(context.Background())); err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Fatalf("replication %d diverged", i)
		}
	}
}

func TestOptimalGranularity(t *testing.T) {
	p := granulock.DefaultParams()
	p.TMax = 500
	best, curve, err := granulock.OptimalGranularity(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	// The paper's central observation: the optimum is neither one lock
	// nor one lock per entity.
	if best <= 1 || best >= p.DBSize {
		t.Fatalf("optimal granularity %d at an extreme; curve %+v", best, curve)
	}
	// best must actually be the argmax of the curve.
	bestThroughput := -1.0
	for _, pt := range curve {
		if pt.Ltot == best {
			bestThroughput = pt.Throughput
		}
	}
	for _, pt := range curve {
		if pt.Throughput > bestThroughput {
			t.Fatalf("curve point %+v beats reported optimum %d", pt, best)
		}
	}
	// The context variant walks the same (cached) curve.
	best2, curve2, err := granulock.OptimalGranularityContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if best2 != best || len(curve2) != len(curve) {
		t.Fatalf("context variant: best %d over %d points, want %d over %d", best2, len(curve2), best, len(curve))
	}
}

func TestOptimalGranularityValidation(t *testing.T) {
	p := granulock.DefaultParams()
	p.NTrans = 0
	if _, _, err := granulock.OptimalGranularity(p); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, _, err := granulock.OptimalGranularityContext(context.Background(), p); err == nil {
		t.Fatal("invalid params accepted with a context")
	}
}
