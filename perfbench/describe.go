package main

import (
	"encoding/json"
	"fmt"

	"pde/internal/scheme"
)

// The benchmark's two description files are generated from the tables
// in workloads.go and report.go, and bench_test.go fails when they fall
// out of step (go test -run Describe -update rewrites them):
//
//   - BENCHMARK.json at the repository root: the benchmark contract
//     (command, workloads, metric names, units, directions, bounds).
//   - perfbench/workloads.json: everything else a reader needs to
//     interpret a number — each workload's table spec, request mix,
//     nominal rate, capacity-probe rate and connection count, and
//     for every per-layer metric the end-to-end metric and workload it
//     should move.

const runSeconds = 15

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

func benchmarkJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &b})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return marshal(f)
}

type workloadDoc struct {
	Name        string      `json:"name"`
	Why         string      `json:"why"`
	Spec        scheme.Spec `json:"spec"`
	Committed   string      `json:"committed_fingerprint,omitempty"`
	Seed        string      `json:"seed"`
	Connections int         `json:"connections"`
	Requests    string      `json:"requests"`
	Mix         []mixDoc    `json:"mix"`
	NominalRate float64     `json:"nominal_rate_per_s"`
	ProbeRate   float64     `json:"capacity_probe_rate_per_s"`
	LagFrac     float64     `json:"lag_frac"`
	Updates     string      `json:"updates"`
	Phases      string      `json:"phases"`
}

type mixDoc struct {
	Kind  string  `json:"kind"`
	Share float64 `json:"share"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves"`
	On     string `json:"on"`
}

type describeFile struct {
	Notes     []string      `json:"notes"`
	Workloads []workloadDoc `json:"workloads"`
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []layerDoc    `json:"per_layer"`
}

func describeJSON() ([]byte, error) {
	f := describeFile{Notes: []string{
		"Load is open loop from one process (GOMAXPROCS = CPU count); latency is timed from each request's due time, so waiting for a busy connection and the generator's own lateness both count. The generator sleeps with nanosleep(2), not the runtime's millisecond-granular timers.",
		"The nominal window is offered in 5 segments, each after an unscored 0.2 s lead-in at the nominal rate in the same phase, spread over the run between the capacity probes, so a stretch of host stalls lasting a few seconds lands in a minority of its windows.",
		"A run whose generator lag p99 over the nominal window (client.lag_ms_p99) exceeds lag_frac of one connection's send interval is reported invalid and exits 3 without a result. Nominal rates are low enough (a 20 ms send interval per connection) that the generator's own delays stay inside it: on a shared 2-vCPU virtual machine its lag p99 reached 5 ms on wire-bulk and 10.4 ms on cluster-churn, where updates keep both processors busy while the generator waits to run.",
		"max_qps is in point lookups per second, the median of ten capacity probes, two after each nominal segment. A probe offers the workload's capacity-probe rate, several times what the stack serves, for 7% of --seconds after an unscored 0.2 s lead-in, and counts the requests completed within that window: the highest rate the stack sustains, past which the generator's backlog grows. Ops still unsent when the window ends are dropped, not drained. The report notes a probe whose completions reach 80% of the offered rate. On cluster-churn the probes offer reads alone.",
		"Query tail percentiles, and the generator lag p99, are upper medians over fifth-of-a-second windows, widened so each window's percentile has ten samples beyond it. Of query latency only the median carries a bound: on a shared 2-vCPU virtual machine, stretches of host stalls lasting from seconds to minutes moved http-mixed's p75 up to 2.4-fold between runs, so p75, p90 and p99 are printed and reported per layer (client.query_p75_ms, client.query_p90_ms, client.query_p99_ms) without a bound. The bounded update tail is p75 (update_p75_ms); p90 is client.update_p90_ms.",
		"error_frac (printed) is failed / attempted, which the result line carries as failed and attempted; failed counts refused, failed, wrong, stale-generation and unknown-fingerprint operations.",
		"Per-layer metrics a workload's layers never exercise are reported as 0.",
		"On wire-bulk and http-mixed the update metrics time weight-preserving /v1/update calls after the read windows: the update path's fixed cost on that table.",
	}}
	for _, w := range workloads {
		d := workloadDoc{
			Name: w.name, Why: w.why, Spec: w.spec.Normalized(), Committed: w.wantFP,
			Seed:        "--seed drives every generated stream; the table spec's own seed is fixed",
			Connections: w.conns, NominalRate: w.nominal, ProbeRate: w.overload, LagFrac: lagFrac,
		}
		d.Updates = fmt.Sprintf("open-loop weight-preserving /v1/update on its own connection after the read windows, %.0f/s for 30%% of --seconds, one seeded edge per batch", w.updateRate)
		d.Phases = fmt.Sprintf("%d set-ups, 1 s warm-up, nominal 35%% of --seconds in 5 segments, ten capacity probes of 7%% of --seconds each, then the update window", w.setups)
		switch w.name {
		case "wire-bulk":
			d.Requests = "pipelined PDE2 Estimate frames of 4096 uniform random (v, s) from a pool of 64 frames"
			d.Mix = []mixDoc{{"estimate (PDE2 frame)", 1}}
		case "http-mixed":
			d.Requests = "HTTP keep-alive; batches of 64 uniform random (v, s) from a pool of 256; route pairs Zipf(1.1) over a pool of 8192"
			for _, m := range w.mix {
				d.Mix = append(d.Mix, mixDoc{kindNames[m.kind], m.share})
			}
		case "cluster-churn":
			d.Requests = "binary /v1/estimate batches of 64 (v, s), s drawn from v's PDE list, through the coordinator"
			d.Mix = []mixDoc{{"estimate", 1}}
			d.Updates = fmt.Sprintf("open-loop /v1/update through the coordinator on a second connection, concurrent with the warm-up and nominal windows, %.0f/s, one reweight per batch: the lowest-damage ±1 of 16 seeded candidates", w.updateRate)
			d.Phases = fmt.Sprintf("%d set-ups, 1 s warm-up, nominal 50%% of --seconds in 5 segments with updates, ten capacity probes of 7%% of --seconds each offering reads alone", w.setups)
		}
		f.Workloads = append(f.Workloads, d)
	}
	for _, m := range endToEnd {
		b := m.bound
		f.EndToEnd = append(f.EndToEnd, benchMetric{Name: m.name, Unit: m.unit, Better: m.better, Bound: &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDoc{Name: m.name, Unit: m.unit, Better: m.better, Moves: m.moves, On: m.on})
	}
	return marshal(f)
}

func marshal(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
