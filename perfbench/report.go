package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	// Per-layer only: the end-to-end metrics this layer metric should
	// move, and the workload it should move them on.
	moves, on string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "max_qps", unit: "lookups/s", better: "higher", bound: 0.25},
	{name: "update_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "update_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_heap_mb", unit: "MiB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	// build: core.Run → oracle.Compile → Result.Fingerprint → server.NewWithPrebuilt
	{name: "core.run_s", unit: "s", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.active_rounds", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.budget_rounds", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.messages", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.message_bits", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.instances", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "oracle.compile_s", unit: "s", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "oracle.entries", unit: "count", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "oracle.bytes", unit: "bytes", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "core.fingerprint_ms", unit: "ms", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	{name: "server.new_s", unit: "s", better: "lower", moves: "setup_s, peak_heap_mb", on: "wire-bulk"},
	// oracle: in-process replay of the workload's own stream
	{name: "oracle.answer_all_ns_per_q", unit: "ns", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "oracle.answer_sorted_ns_per_q", unit: "ns", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	// wire (PDE2)
	{name: "wire.frame_us_p50", unit: "us", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.frame_us_p99", unit: "us", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.answer_us_p50", unit: "us", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.self_us_p50", unit: "us", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.sorted_frac", unit: "ratio", better: "higher", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	{name: "wire.inflight_max", unit: "count", better: "lower", moves: "max_qps, query_p50_ms", on: "wire-bulk"},
	// server (HTTP handlers, batcher, codecs, route LRU)
	{name: "http.estimate.handler_us_p50", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.estimate.handler_us_p99", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.nexthop.handler_us_p50", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.nexthop.handler_us_p99", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.route.handler_us_p50", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.route.handler_us_p99", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "http.net_us_p50", unit: "us", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "batcher.avg_queries_per_flush", unit: "count", better: "higher", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "batcher.coalesce_ratio", unit: "ratio", better: "higher", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "route_cache.hit_rate", unit: "ratio", better: "higher", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "codec.encode_ns_per_q", unit: "ns", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	{name: "codec.decode_ns_per_q", unit: "ns", better: "lower", moves: "query_p50_ms, max_qps", on: "http-mixed"},
	// update path
	{name: "update.server_ms_p50", unit: "ms", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "update.damage_mean", unit: "ratio", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "update.instances_rebuilt_mean", unit: "count", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "update.delta_frac", unit: "ratio", better: "higher", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "core.patch_ms_p50", unit: "ms", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "oracle.recompile_ms_p50", unit: "ms", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	{name: "core.refingerprint_ms_p50", unit: "ms", better: "lower", moves: "update_p50_ms, update_p75_ms", on: "cluster-churn"},
	// cluster
	{name: "cluster.relay_us_p50", unit: "us", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	{name: "cluster.propagate_ms_p50", unit: "ms", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	{name: "cluster.failovers", unit: "count", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	{name: "cluster.retries", unit: "count", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	{name: "read.p99_ms_during_update", unit: "ms", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	{name: "read.p99_ms_idle", unit: "ms", better: "lower", moves: "query_p50_ms, update_p50_ms", on: "cluster-churn"},
	// generator and tracing
	{name: "client.query_p75_ms", unit: "ms", better: "lower", moves: "none (the unbounded tail of query latency)", on: "all"},
	{name: "client.query_p90_ms", unit: "ms", better: "lower", moves: "none (the unbounded tail of query latency)", on: "all"},
	{name: "client.query_p99_ms", unit: "ms", better: "lower", moves: "none (the unbounded tail of query latency)", on: "all"},
	{name: "client.update_p90_ms", unit: "ms", better: "lower", moves: "none (the unbounded tail of update latency)", on: "all"},
	{name: "client.lag_ms_p99", unit: "ms", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.reconcile_err_frac", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.queue", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.client", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.cluster", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.server", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.wire", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
	{name: "trace.self_frac.oracle", unit: "ratio", better: "lower", moves: "none (run validity and tracing cost)", on: "all"},
}

// report is one run's outcome. Metrics a workload's layers never
// exercise (the wire layer on an HTTP workload, say) stay 0.
type report struct {
	workload  string
	seed      int64
	traced    bool
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // correctness failures
	invalid   string   // non-empty: the run is not scored
	lines     []string
}

func newReport(w *workload, seed int64, traced bool) *report {
	r := &report{workload: w.name, seed: seed, traced: traced, metrics: make(map[string]float64)}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		r.metrics[d.name] = 0
	}
	return r
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the attempted/failed tallies.
func (r *report) count(sent, failed int) {
	r.attempted += sent
	r.failed += failed
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human-readable report and, as the last line, the
// JSON result object.
func (r *report) write(w io.Writer) error {
	mode := "end-to-end"
	defs := endToEnd
	if r.traced {
		mode, defs = "traced (per-layer)", perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s run\n", r.workload, r.seed, mode)
	fmt.Fprintf(w, "gomaxprocs %d  cpus %d  (client, daemons and coordinator share this process)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, l := range r.lines {
		fmt.Fprintln(w, "  "+l)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  error_frac %.6f ratio (%d failed / %d attempted)\n", errFrac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "  PROBLEM: "+p)
	}
	out := resultLine{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
			r.problems = append(r.problems, d.name+" is not finite")
			out.Correct = false
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	b, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
