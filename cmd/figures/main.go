// Command figures regenerates the paper's evaluation: Table 1, Figures
// 2 through 12 and the extension experiments beyond the paper. Each
// experiment is written as a text report (tables plus ASCII charts) and
// a CSV file, and every run ends with REPORT.txt: the wall time of each
// experiment, then the simulated and analytic optimal granularity of
// the base configuration.
//
// Usage:
//
//	figures [-out results] [-only fig2,fig9] [-tmax 1000] [-reps 1] [-seed 1] [-q]
//
// With no flags every experiment runs at the paper's horizon into
// ./results. Use -tmax 200 for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"granulock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	outDir := fs.String("out", "results", "output directory")
	only := fs.String("only", "", "comma-separated experiment ids (default: every paper figure and extension); 'table1' selects the parameter table")
	tmax := fs.Float64("tmax", 0, "override simulation horizon (0 = paper default)")
	reps := fs.Int("reps", 1, "replications per point")
	seed := fs.Uint64("seed", 1, "base random seed")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	ids := append(granulock.FigureIDs(), granulock.ExtensionIDs()...)
	wantTable := true
	if *only != "" {
		sel := strings.Split(*only, ",")
		wantTable = false
		var filtered []string
		for _, s := range sel {
			s = strings.TrimSpace(s)
			if s == "table1" {
				wantTable = true
				continue
			}
			filtered = append(filtered, s)
		}
		ids = filtered
	}

	if wantTable {
		path := filepath.Join(*outDir, "table1.txt")
		if err := os.WriteFile(path, []byte(granulock.Table1()), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Println("wrote", path)
		}
	}

	// The base configuration at the run's horizon and seed, for the
	// optimum the report ends with.
	p := granulock.DefaultParams()
	p.Seed = *seed
	if *tmax > 0 {
		p.TMax = *tmax
	}
	var report strings.Builder
	fmt.Fprintf(&report, "granulock reproduction report — tmax=%v, reps=%d, seed=%d\n\n", p.TMax, *reps, *seed)
	opts := granulock.Options{TMax: *tmax, Seed: *seed, Replications: *reps}
	for _, id := range ids {
		start := time.Now()
		fig, err := granulock.RunFigure(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		txt := filepath.Join(*outDir, id+".txt")
		if err := os.WriteFile(txt, []byte(granulock.RenderText(fig)), 0o644); err != nil {
			return err
		}
		csv := filepath.Join(*outDir, id+".csv")
		if err := os.WriteFile(csv, []byte(granulock.RenderCSV(fig)), 0o644); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(&report, "%-24s %7.1fs\n", id, elapsed)
		if !*quiet {
			fmt.Printf("wrote %s and %s (%.1fs)\n", txt, csv, elapsed)
		}
	}

	simBest, _, err := granulock.OptimalGranularity(p)
	if err != nil {
		return err
	}
	anaBest, _, err := granulock.PredictOptimalGranularity(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(&report, "\noptimal granularity: simulated %d, analytic %d\n", simBest, anaBest)
	path := filepath.Join(*outDir, "REPORT.txt")
	if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Println("wrote", path)
	}
	return nil
}
