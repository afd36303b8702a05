package granulock_test

import (
	"fmt"

	"granulock"
)

// ExampleRun simulates the paper's base configuration once and prints
// the headline outputs. Results are deterministic per seed.
func ExampleRun() {
	p := granulock.DefaultParams()
	p.NPros = 10
	p.Ltot = 100
	p.TMax = 500
	p.Seed = 1

	m, err := granulock.Run(p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed: %d transactions\n", m.TotCom)
	fmt.Printf("throughput: %.3f txn/time unit\n", m.Throughput)
	// Output:
	// completed: 96 transactions
	// throughput: 0.192 txn/time unit
}

// ExampleOptimalGranularity answers the paper's tuning question for one
// configuration: how many locks should the database expose?
func ExampleOptimalGranularity() {
	p := granulock.DefaultParams()
	p.TMax = 500
	p.Seed = 1

	best, _, err := granulock.OptimalGranularity(p)
	if err != nil {
		panic(err)
	}
	// The optimum is interior: neither one lock nor one per entity.
	fmt.Printf("interior optimum: %v\n", best > 1 && best < p.DBSize)
	// Output:
	// interior optimum: true
}

// ExamplePredict uses the analytic MVA companion instead of simulating.
func ExamplePredict() {
	p := granulock.DefaultParams()
	pred, err := granulock.Predict(p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("throughput at most the no-contention bound: %v\n",
		pred.Throughput <= pred.NoContention)
	// Output:
	// throughput at most the no-contention bound: true
}

// ExampleRunFigure regenerates one of the paper's figures.
func ExampleRunFigure() {
	fig, err := granulock.RunFigure("fig7", granulock.Options{TMax: 100, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(fig.ID, "-", len(fig.Panels), "panel,", len(fig.Panels[0].Series), "series")
	// Output:
	// fig7 - 1 panel, 3 series
}

// ExampleWithReplications quantifies the simulation noise: replication
// r runs seed Seed + r·1,000,003, the seed rule of the figures, and the
// summary gives each headline output a 95% confidence half-width.
func ExampleWithReplications() {
	p := granulock.DefaultParams()
	p.Seed = 42

	var rep granulock.Replicated
	if _, err := granulock.Run(p, granulock.WithReplications(5), granulock.WithReplicatedSummary(&rep)); err != nil {
		panic(err)
	}
	fmt.Printf("replications: %d\n", rep.Throughput.N)
	fmt.Printf("throughput: %.4f ± %.4f\n", rep.Throughput.Mean, rep.Throughput.CI95)
	fmt.Printf("response time: %.2f ± %.2f\n", rep.MeanResponse.Mean, rep.MeanResponse.CI95)
	// Output:
	// replications: 5
	// throughput: 0.1886 ± 0.0049
	// response time: 51.58 ± 1.53
}

// ExamplePredictOptimalGranularity asks the tuning question twice: of
// the simulation and of the analytic model, which answers without
// simulating. Both find an interior optimum, adjacent on the
// granularity grid.
func ExamplePredictOptimalGranularity() {
	p := granulock.DefaultParams()
	p.Seed = 1

	simulated, _, err := granulock.OptimalGranularity(p)
	if err != nil {
		panic(err)
	}
	analytic, _, err := granulock.PredictOptimalGranularity(p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal granularity: simulated %d, analytic %d\n", simulated, analytic)
	// Output:
	// optimal granularity: simulated 5, analytic 10
}
