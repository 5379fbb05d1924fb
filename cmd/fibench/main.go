// Command fibench regenerates the paper's tables and figures (see
// DESIGN.md experiment index and EXPERIMENTS.md for the mapping). It exits
// 1 when an experiment's shape check fails.
//
// Usage:
//
//	fibench [-exp all|fig3|table1|fig8|fig11|learn|tpcc|ablation|sync|mpp|expand|parallel|ha|net|georepl|frontdoor|ndp|htap|joins|autopilot]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (see -exp list)")
	flag.Parse()

	known := *exp == "all"
	for _, e := range experiments.All {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		known = true
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "fibench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
	if !known {
		names := []string{"all"}
		for _, e := range experiments.All {
			names = append(names, e.Name)
		}
		fmt.Fprintf(os.Stderr, "fibench: unknown experiment %q; available: %s\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}
