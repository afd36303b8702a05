// Command granulint is the repo's invariant multichecker: it runs the
// granulint analyzer suite (internal/analysis) over Go packages and
// exits non-zero on any unsuppressed finding. It is the static half of
// `make verify` — the analyzers mechanize the invariants (the zero-alloc
// hot paths, the wire error taxonomy, metric naming) that the test suite
// can only catch by luck.
//
// Usage:
//
//	granulint [-run a,b,...] [-C dir] [packages]
//
// packages are go list patterns, default ./... . Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
//
// Findings are suppressed line-by-line with
//
//	//granulint:ignore <analyzer> <reason>
//
// where the reason is mandatory; see docs/ANALYSIS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"granulock/internal/analysis"
	"granulock/internal/analysis/driver"
)

func main() {
	var (
		run  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		dir  = flag.String("C", "", "change to this directory before loading packages")
		list = flag.Bool("list", false, "list registered analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: granulint [-run a,b,...] [-C dir] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	var analyzers []*analysis.Analyzer
	if *run != "" {
		for _, name := range strings.Split(*run, ",") {
			name = strings.TrimSpace(name)
			a, ok := analysis.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "granulint: unknown analyzer %q (see granulint -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	n, err := driver.Run(driver.Options{
		Dir:       *dir,
		Patterns:  flag.Args(),
		Analyzers: analyzers,
		Out:       os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "granulint: %v\n", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "granulint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
