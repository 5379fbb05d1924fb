// Command fibench regenerates the paper's tables and figures (see
// DESIGN.md experiment index and EXPERIMENTS.md for the mapping).
//
// Usage:
//
//	fibench [-exp all|fig3|table1|fig8|fig11|learn|tpcc|ablation|sync|mpp|expand|parallel|ha|net|georepl|frontdoor|ndp|htap|joins|autopilot]
//	        [-duration seconds] [-sessions n]
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
	duration := flag.Float64("duration", 2.0, "virtual seconds per simulator run (fig3/ablation)")
	sessions := flag.Int("sessions", 10000, "concurrent driver sessions (frontdoor)")
	flag.Parse()

	w := os.Stdout
	// Ordered registry: names print in this order for -exp list/errors and
	// run in this order under -exp all.
	type entry struct {
		name string
		fn   func() error
	}
	registry := []entry{
		{"fig3", func() error { _, err := experiments.Fig3(w, *duration); return err }},
		{"table1", func() error { return experiments.Table1(w) }},
		{"fig8", func() error { return experiments.Fig8(w) }},
		{"fig11", func() error { _, err := experiments.Fig11(w, 200, 2000); return err }},
		{"learn", func() error { _, err := experiments.Learn(w); return err }},
		{"tpcc", func() error { return experiments.TPCC(w, 200) }},
		{"ablation", func() error {
			if err := experiments.AblationCrossShard(w, *duration); err != nil {
				return err
			}
			return experiments.AblationGTMService(w, *duration)
		}},
		{"sync", func() error { experiments.EdgeSync(w, 6, 20); return nil }},
		{"mpp", func() error { return experiments.MPPExtensions(w) }},
		{"expand", func() error { return experiments.Expand(w, 300) }},
		{"parallel", func() error { return experiments.Parallel(w) }},
		{"ha", func() error { return experiments.HA(w, 300) }},
		{"net", func() error { _, err := experiments.Network(w, 400); return err }},
		{"georepl", func() error { return experiments.GeoRepl(w, 150) }},
		{"frontdoor", func() error { return experiments.FrontDoor(w, *sessions) }},
		{"ndp", func() error { return experiments.NDP(w) }},
		{"htap", func() error { return experiments.HTAP(w, 300) }},
		{"joins", func() error { return experiments.Joins(w) }},
		{"autopilot", func() error { return experiments.Autopilot(w, 4000) }},
	}

	known := *exp == "all"
	for _, e := range registry {
		if *exp != "all" && *exp != e.name {
			continue
		}
		known = true
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "fibench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !known {
		names := make([]string, 0, len(registry)+1)
		names = append(names, "all")
		for _, e := range registry {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "fibench: unknown experiment %q; available: %s\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}
