// Command pde-experiments prints every experiment table as markdown on
// stdout: one table per theorem/figure of the paper, each showing
// paper-predicted against measured values.
//
// Usage:
//
//	pde-experiments [-quick] [-only E3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pde/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced-scale configuration")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E3)")
	flag.Parse()

	scale := bench.Full
	if *quick {
		scale = bench.Quick
	}
	runners := map[string]func(bench.Scale) *bench.Table{
		"E1":  bench.E1APSP,
		"E1b": bench.E1Baselines,
		"E2":  bench.E2PDESweep,
		"E3":  bench.E3Figure1,
		"E4":  bench.E4Messages,
		"E5":  bench.E5RTC,
		"E6":  bench.E6Compact,
		"E7":  bench.E7Trees,
		"E8":  bench.E8Spanner,
		"E9":  bench.E9Ablation,
	}
	if *only != "" {
		run, ok := runners[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: E1 E1b E2 E3 E4 E5 E6 E7 E8 E9\n", *only)
			os.Exit(2)
		}
		fmt.Print(run(scale).Markdown())
		return
	}
	for _, t := range bench.All(scale) {
		fmt.Print(t.Markdown())
		fmt.Fprintln(os.Stderr, strings.Repeat("-", 20), t.ID, "done")
	}
}
