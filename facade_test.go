package granulock_test

import (
	"context"
	"errors"
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
	if _, err := granulock.RunFigure("fig7", granulock.Options{TMax: 150, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled figure returned %v, want context.Canceled", err)
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
	// The field-wise mean and Welford's mean differ only in summation
	// order, so they agree to round-off.
	if diff := avg.Throughput - rep.Throughput.Mean; diff > 1e-12 || diff < -1e-12 {
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
