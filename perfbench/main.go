// Command perfbench is the repository's end-to-end benchmark. It boots
// the real serving stack in-process on loopback — pde-serve daemons
// (internal/server), their PDE2 listeners (internal/wire) and the
// pde-cluster coordinator (internal/cluster) — drives one named
// workload with a seeded open-loop generator, checks every answer
// against an in-process reference, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// latency at a fixed rate, capacity under a latency limit, update
// latency, peak heap). With --trace 1 the run instead times calls into
// each layer's public functions from this package's own wrappers and
// replays, and reports per-layer numbers whose self times add back up
// to the request walls; tracing overhead is the traced window's median
// latency over an untraced window's in the same run.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload wire-bulk --seed 1 --seconds 15 --trace 0
//
// Workloads, rates and limits are listed in perfbench/workloads.json and
// defined in workloads.go.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	spansDir string
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated request stream")
	seconds := flag.Int("seconds", 15, "seconds of timed load per run")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	flag.Parse()

	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: float64(*seconds), traced: *trace == 1, spansDir: *spans}
	rep, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rep.invalid != "" {
		for _, l := range rep.lines {
			fmt.Fprintln(os.Stderr, "  "+l)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid, not scored: %s\n", w.name, rep.invalid)
		os.Exit(3)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func runWorkload(w *workload, opt options) (*report, error) {
	switch w.name {
	case "wire-bulk":
		return runWireBulk(w, opt)
	case "http-mixed":
		return runHTTPMixed(w, opt)
	case "cluster-churn":
		return runClusterChurn(w, opt)
	}
	return nil, fmt.Errorf("no runner for workload %q", w.name)
}
