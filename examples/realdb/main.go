// Realdb: drive the executable shared-nothing mini-DBMS (real
// goroutines, a real granule lock table) across a range of granule
// counts and locking protocols, cross-validating the simulation's
// conclusions on live concurrency: coarse granularity forces blocking,
// fine granularity removes it, and the conservative protocol never
// deadlocks while claim-as-needed detects and retries.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"granulock/internal/engine"
)

func main() {
	workers := flag.Int("workers", 8, "closed population of worker goroutines")
	txns := flag.Int("txns", 300, "transactions per worker")
	work := flag.Int("work", 20000, "synthetic lock-holding computation per transaction")
	flag.Parse()

	fmt.Println("granules  protocol          committed   blocked          restarts  tps")
	for _, granules := range []int{1, 10, 100, 1000} {
		for _, protocol := range []engine.Protocol{engine.Conservative, engine.ClaimAsNeeded, engine.Hierarchical} {
			db, err := engine.Open(1000,
				engine.WithNodes(4),
				engine.WithGranules(granules),
				engine.WithProtocol(protocol),
				engine.WithInitialValue(100),
				engine.WithEscalationThreshold(16))
			if err != nil {
				log.Fatal(err)
			}
			before := db.TotalBalance()
			res, err := db.RunClosed(context.Background(), engine.Workload{
				Workers:         *workers,
				TxnsPerWorker:   *txns,
				TransfersPerTxn: 2,
				ReadFraction:    0.2,
				WorkPerTxn:      *work,
				Seed:            1,
			})
			if err != nil {
				log.Fatal(err)
			}
			if after := db.TotalBalance(); after != before {
				log.Fatalf("CONSISTENCY VIOLATED: balance %d -> %d", before, after)
			}
			s := db.Stats()
			extra := ""
			if s.Escalations > 0 {
				extra = fmt.Sprintf("  (escalations: %d)", s.Escalations)
			}
			fmt.Printf("%8d  %-16s  %9d  %8d  %16d  %.0f%s\n",
				granules, protocol, res.Committed, s.Lock.Blocks, s.Restarts, res.ThroughputTPS, extra)
		}
	}
	fmt.Println("\nEvery run preserved the total balance: locking kept the database")
	fmt.Println("consistent under concurrent funds transfers (the §1 motivating")
	fmt.Println("example). Blocking falls sharply as granules increase — the same")
	fmt.Println("concurrency effect the simulation model quantifies.")
}
