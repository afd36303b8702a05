// Quickstart: run the paper's base configuration once, inspect the
// output parameters, and ask the library for the throughput-optimal
// locking granularity.
package main

import (
	"fmt"
	"log"

	"granulock"
)

func main() {
	// The paper's Table 1 configuration: a 5000-entity database, 10
	// terminals, I/O-bound transactions averaging 250 entities.
	p := granulock.DefaultParams()
	p.NPros = 10 // ten processors, each with a private CPU and disk
	p.Ltot = 100 // one hundred lockable granules
	p.Seed = 42

	m, err := granulock.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== one run, npros=10, ltot=100 ==")
	fmt.Printf("completed transactions  %d\n", m.TotCom)
	fmt.Printf("throughput              %.4f txn/time unit\n", m.Throughput)
	fmt.Printf("mean response time      %.2f time units\n", m.MeanResponse)
	fmt.Printf("lock overhead           %.1f CPU + %.1f I/O time units\n", m.LockCPUs, m.LockIOs)
	fmt.Printf("lock requests denied    %.1f%%\n", 100*m.DenialRate)
	fmt.Printf("attained concurrency    %.2f active transactions\n", m.MeanActive)

	// Replicated runs quantify the simulation noise.
	var rep granulock.Replicated
	if _, err := granulock.Run(p, granulock.WithReplications(5), granulock.WithReplicatedSummary(&rep)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== five replications ==")
	fmt.Printf("throughput              %.4f ± %.4f (95%% CI)\n",
		rep.Throughput.Mean, rep.Throughput.CI95)
	fmt.Printf("response time           %.2f ± %.2f\n",
		rep.MeanResponse.Mean, rep.MeanResponse.CI95)

	// The tuning question the paper answers: how many granules should
	// this system have?
	best, curve, err := granulock.OptimalGranularity(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== granularity curve ==")
	fmt.Printf("%8s  %10s  %10s\n", "ltot", "throughput", "response")
	for _, pt := range curve {
		marker := "  "
		if pt.Ltot == best {
			marker = "<- optimum"
		}
		fmt.Printf("%8d  %10.4f  %10.2f %s\n", pt.Ltot, pt.Throughput, pt.MeanResponse, marker)
	}
	fmt.Printf("\nthroughput-optimal number of locks: %d (of a possible %d)\n", best, p.DBSize)
}
