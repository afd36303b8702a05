package model

import (
	"context"
	"math"
	"testing"

	"granulock/internal/obs"
	"granulock/internal/stats"
	"granulock/internal/trace"
	"granulock/internal/workload"
)

// eventCounter tallies events by kind.
type eventCounter struct {
	Arrivals, Requests, Grants, Denials, Completions int
}

func (c *eventCounter) Observe(e trace.Event) {
	switch e.Kind {
	case trace.EventArrive:
		c.Arrivals++
	case trace.EventRequest:
		c.Requests++
	case trace.EventGrant:
		c.Grants++
	case trace.EventDeny:
		c.Denials++
	case trace.EventComplete:
		c.Completions++
	}
}

func TestObserverEventCounts(t *testing.T) {
	p := base()
	var c eventCounter
	m, err := RunContext(context.Background(), p, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completions != m.TotCom {
		t.Fatalf("observer completions %d != metrics totcom %d", c.Completions, m.TotCom)
	}
	if c.Requests != m.LockRequests {
		t.Fatalf("observer requests %d != metrics %d", c.Requests, m.LockRequests)
	}
	if c.Grants+c.Denials != c.Requests {
		t.Fatalf("grants %d + denials %d != requests %d", c.Grants, c.Denials, c.Requests)
	}
	if c.Denials != m.LockDenials {
		t.Fatalf("observer denials %d != metrics %d", c.Denials, m.LockDenials)
	}
	// Initial population plus one replacement per completion.
	if c.Arrivals != p.NTrans+c.Completions {
		t.Fatalf("arrivals %d, want %d", c.Arrivals, p.NTrans+c.Completions)
	}
}

func TestObserverDoesNotPerturbMetrics(t *testing.T) {
	p := base()
	plain := run(t, p)
	var c eventCounter
	observed, err := RunContext(context.Background(), p, &c)
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatal("attaching an observer changed the simulation result")
	}
}

func TestResponseCollectorMatchesMeanResponse(t *testing.T) {
	p := base()
	var rc ResponseCollector
	m, err := RunContext(context.Background(), p, &rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Responses) != m.TotCom {
		t.Fatalf("collected %d responses, want %d", len(rc.Responses), m.TotCom)
	}
	sum := 0.0
	for _, r := range rc.Responses {
		sum += r
	}
	if math.Abs(sum/float64(len(rc.Responses))-m.MeanResponse) > 1e-9 {
		t.Fatal("collector mean disagrees with metrics mean")
	}
}

func TestResponseCollectorAfterFilter(t *testing.T) {
	p := base()
	all := ResponseCollector{}
	late := ResponseCollector{After: p.TMax / 2}
	if _, err := RunContext(context.Background(), p, &all); err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), p, &late); err != nil {
		t.Fatal(err)
	}
	if len(late.Responses) >= len(all.Responses) {
		t.Fatalf("After filter dropped nothing: %d vs %d", len(late.Responses), len(all.Responses))
	}
	if len(late.Responses) == 0 {
		t.Fatal("After filter dropped everything")
	}
}

func TestBatchMeansOverResponses(t *testing.T) {
	p := base()
	p.TMax = 2000
	var rc ResponseCollector
	m, err := RunContext(context.Background(), p, &rc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := stats.BatchMeans(rc.Responses, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.CI95 <= 0 {
		t.Fatal("zero batch-means CI")
	}
	// The batch-means point estimate must be close to the overall mean
	// (identical up to the dropped tail observations).
	if math.Abs(s.Mean-m.MeanResponse) > 0.1*m.MeanResponse {
		t.Fatalf("batch means %v far from mean response %v", s.Mean, m.MeanResponse)
	}
}

func TestClassCollectorMixedWorkload(t *testing.T) {
	p := base()
	p.TMax = 2000
	p.Classes = workload.SmallLargeMix(50, 500, 0.8)
	var cc ClassCollector
	m, err := RunContext(context.Background(), p, &cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Completions) != 2 {
		t.Fatalf("classes observed: %d", len(cc.Completions))
	}
	if cc.Completions[0]+cc.Completions[1] != m.TotCom {
		t.Fatalf("class completions %v don't sum to totcom %d", cc.Completions, m.TotCom)
	}
	// Small transactions (class 0) dominate completions: they are both
	// 80% of arrivals and individually faster.
	if cc.Completions[0] <= cc.Completions[1] {
		t.Fatalf("small-class completions %d not above large-class %d",
			cc.Completions[0], cc.Completions[1])
	}
	// And they respond faster.
	if cc.MeanResponse(0) >= cc.MeanResponse(1) {
		t.Fatalf("small-class response %v not below large-class %v",
			cc.MeanResponse(0), cc.MeanResponse(1))
	}
	if cc.MeanResponse(9) != 0 || cc.MeanResponse(-1) != 0 {
		t.Fatal("out-of-range class response nonzero")
	}
}

func TestWarmupValidation(t *testing.T) {
	p := base()
	p.Warmup = -1
	if _, err := Run(p); err == nil {
		t.Fatal("negative warmup accepted")
	}
	p.Warmup = p.TMax
	if _, err := Run(p); err == nil {
		t.Fatal("warmup == tmax accepted")
	}
}

func TestWarmupWindowAccounting(t *testing.T) {
	p := base()
	p.TMax = 1000
	p.Warmup = 500
	m, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotCom <= 0 {
		t.Fatal("no completions in the measurement window")
	}
	// Busy times now cover at most the window.
	maxBusy := float64(p.NPros) * (p.TMax - p.Warmup)
	if m.TotIOs > maxBusy+1e-6 || m.TotCPUs > maxBusy+1e-6 {
		t.Fatalf("busy time exceeds measurement window: io=%v cpu=%v max=%v", m.TotIOs, m.TotCPUs, maxBusy)
	}
	if m.MeanActive < 0 || m.MeanActive > float64(p.NTrans) {
		t.Fatalf("mean active %v", m.MeanActive)
	}
	// A full run counts more completions than the measurement window.
	full := run(t, func() Params { q := p; q.Warmup = 0; return q }())
	if m.TotCom >= full.TotCom {
		t.Fatalf("windowed totcom %d not below full-run %d", m.TotCom, full.TotCom)
	}
	// Throughputs should roughly agree (the process is near-stationary).
	if m.Throughput < 0.5*full.Throughput || m.Throughput > 1.5*full.Throughput {
		t.Fatalf("windowed throughput %v wildly off full-run %v", m.Throughput, full.Throughput)
	}
}

func TestWarmupRemovesColdStartBias(t *testing.T) {
	// The first time units include the staggered arrivals; response
	// times over the warm window exclude that transient. We only check
	// the mechanism works: the two estimates differ, both positive.
	p := base()
	p.TMax = 1000
	cold := run(t, p)
	p.Warmup = 200
	warm := run(t, p)
	if warm.MeanResponse <= 0 || cold.MeanResponse <= 0 {
		t.Fatal("non-positive response estimates")
	}
	if warm == cold {
		t.Fatal("warmup had no effect at all")
	}
}

// BenchmarkRunObserved times the observed run WithMetrics takes: the
// base configuration with every lifecycle event mirrored into a
// registry by NewMetricsObserver.
func BenchmarkRunObserved(b *testing.B) {
	p := base()
	o := NewMetricsObserver(obs.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		if _, err := RunContext(context.Background(), p, o); err != nil {
			b.Fatal(err)
		}
	}
}
