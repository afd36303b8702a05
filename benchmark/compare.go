package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// failRatioBound is the absolute bound on failed/attempted: a workload
// on which no operation should fail may not start failing one in a
// thousand.
const failRatioBound = 0.001

// setupFloorS is the difference in setup_s, in seconds, below which
// -compare does not hold a run to the metric's relative bound: set-up
// takes microseconds to milliseconds here, and a fifth of a second is
// what a user would notice. The driver that reads BENCHMARK.json knows
// no floor; against it setup_s has only its relative bound.
const setupFloorS = 0.2

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// worseBy returns by what share of a the value b is worse than a, given
// the metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

const markOutside = "OUTSIDE"

// verdict marks one cell of the comparison: empty when b is worse than a
// by no more than bound, markOutside when it is, and a note when the
// cell is setup_s and the two values differ by less than setupFloorS.
func verdict(metric string, a, b, worse, bound float64) string {
	switch {
	case worse <= bound:
		return ""
	case metric == "setup_s" && math.Abs(b-a) < setupFloorS:
		return fmt.Sprintf("under %g s", setupFloorS)
	}
	return markOutside
}

// compareMain prints, per (end-to-end metric, workload), both reports'
// values, by how much the second is worse and the bound from the spec,
// marks the cells outside their bound, and returns the exit code: 1 if
// any cell is outside, 2 on bad input.
func compareMain(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
		return 2
	}
	sp, err := readSpec(specPath)
	if err == nil && len(sp.EndToEnd) == 0 {
		err = fmt.Errorf("%s: no end_to_end metrics", specPath)
	}
	var a, b report
	if err == nil {
		a, err = readReport(args[0])
	}
	if err == nil {
		b, err = readReport(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("A: %s (seed %d, %d s, GOMAXPROCS %d)\nB: %s (seed %d, %d s, GOMAXPROCS %d)\n",
		args[0], a.Seed, a.Seconds, a.Env.GOMAXPROCS, args[1], b.Seed, b.Seconds, b.Env.GOMAXPROCS)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tworse by\tbound\t\t")
	outside := 0
	row := func(w, metric string, av, bv float64, unit string, worse, bound float64, relative bool) {
		mark := verdict(metric, av, bv, worse, bound)
		if mark == markOutside {
			outside++
		}
		if relative {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\t\n", w, metric, av, bv, unit, 100*worse, 100*bound, mark)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.4f\t%.3f\t%s\t\n", w, metric, av, bv, unit, worse, bound, mark)
		}
	}
	for _, w := range workloads {
		ra, oka := a.Workloads[w.name]
		rb, okb := b.Workloads[w.name]
		if !oka || !okb {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s is missing from a report\n", w.name)
			return 2
		}
		for _, m := range sp.EndToEnd {
			av, bv := ra.EndToEnd.Metrics[m.Name].Value, rb.EndToEnd.Metrics[m.Name].Value
			row(w.name, m.Name, av, bv, m.Unit, worseBy(av, bv, m.Better), m.Bound, true)
		}
		fa, fb := failRatio(ra.EndToEnd), failRatio(rb.EndToEnd)
		row(w.name, "fail_ratio", fa, fb, "ratio", fb-fa, failRatioBound, false)
		if !rb.EndToEnd.Correct || !rb.PerLayer.Correct {
			fmt.Fprintf(tw, "%s\toutput checks\t\t\t\t\t\tFAILED\t\n", w.name)
			outside++
		}
	}
	tw.Flush()
	if outside > 0 {
		fmt.Printf("%d cells outside their bound\n", outside)
		return 1
	}
	fmt.Println("every cell within its bound")
	return 0
}

func failRatio(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
