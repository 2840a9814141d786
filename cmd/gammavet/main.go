// Command gammavet is the multichecker driver for the repository's custom
// analyzers (internal/analysis): it enforces that the simulator stays
// bit-for-bit deterministic and that no tuple traffic bypasses the cost
// model. CI runs it alongside go vet and the race detector.
//
// Usage:
//
//	go run ./cmd/gammavet ./...
//	go run ./cmd/gammavet ./internal/core ./internal/netsim
//
// Each analyzer checks only the packages in its scope (analysis.Analyzer's
// Scope field, the table docs/STATIC_ANALYSIS.md reproduces); packages
// outside every scope are skipped. The live-gate tests in internal/analysis
// read the same table. Exit status is 1 when any diagnostic is reported and
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"gammajoin/internal/analysis"
)

func main() {
	verbose := flag.Bool("v", false, "list analyzed packages")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Packages(patterns)
	if err != nil {
		fatal(err)
	}

	findings := 0
	analyzed := 0
	for _, pkg := range pkgs {
		var todo []*analysis.Analyzer
		for _, a := range analysis.All {
			if a.Covers(pkg.Path) {
				todo = append(todo, a)
			}
		}
		if len(todo) == 0 {
			continue
		}
		lp, err := loader.Load(pkg.Dir)
		if err != nil {
			fatal(err)
		}
		analyzed++
		if *verbose {
			fmt.Fprintf(os.Stderr, "gammavet: %s\n", pkg.Path)
		}
		for _, a := range todo {
			diags, err := analysis.Run(a, lp)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				fmt.Println(d)
				findings++
			}
		}
	}
	if analyzed == 0 {
		fatal(fmt.Errorf("no packages matched both the patterns and the analyzer scopes"))
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "gammavet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gammavet:", err)
	os.Exit(2)
}
