package main

import (
	"time"

	"pde/internal/scheme"
)

// mixEntry is one request kind's share of an HTTP mix.
type mixEntry struct {
	kind  uint8
	share float64
}

// workload is one named traffic mix over one served table. Rates are
// requests (or PDE2 frames) per second; the offered load is open loop.
type workload struct {
	name string
	why  string
	spec scheme.Spec
	// wantFP is the committed artifact's fingerprint for the same spec
	// ("" when no committed artifact pins this table's build).
	wantFP string
	conns  int
	batch  int // point lookups per estimate/nexthop request or frame
	// nominal is the fixed rate query latency is reported at; overload
	// the rate the capacity probes offer, several times what the stack
	// serves, so that completions, not the schedule, set their pace.
	nominal, overload float64
	mix               []mixEntry
	// updateRate is /v1/update batches per second.
	updateRate float64
	// setups is how many times set-up runs (the median is reported).
	setups int
	// pool sizes
	poolBatches, poolPairs int
}

// The served tables are the committed artifacts' specs, so fingerprints
// cross-check: BENCH_serve_estimate-apsp-n512.json pins 6f083dff665ec1e2
// and BENCH_serve_estimate-apsp-n256.json pins 5a054cf6f09bf83a. The
// roadgrid cell is BENCH_update_roadgrid-16x16.json's spec; that
// artifact pins the fingerprint after its own churn stream, not the
// initial build, so it is not cross-checked here.
var (
	specAPSP512  = scheme.Spec{Scheme: "oracle", Topology: "random", N: 512, Eps: 1, MaxW: 4, Seed: 4}
	specAPSP256  = scheme.Spec{Scheme: "oracle", Topology: "random", N: 256, Eps: 1, MaxW: 4, Seed: 4}
	specRoadgrid = scheme.Spec{Scheme: "oracle", Topology: "roadgrid", N: 256, Eps: 0.5, MaxW: 1024, H: 32, Sigma: 12, Seed: 31, BuildWorkers: 1}
)

var workloads = []*workload{{
	name: "wire-bulk",
	why:  "PDE2 frames of 4096 lookups on a 5.7 MB n=512 table: wire framing, radix sort, AnswerSorted and encode dominate; build lands in setup",
	spec: specAPSP512, wantFP: "6f083dff665ec1e2",
	conns: 2, batch: 4096,
	nominal: 100, overload: 30000,
	updateRate: 1, setups: 5,
	poolBatches: 64,
}, {
	name: "http-mixed",
	why:  "HTTP keep-alive mix of binary estimate/nexthop, JSON route and JSON estimate on n=256: per-request parse, batcher, codecs and route LRU dominate",
	spec: specAPSP256, wantFP: "5a054cf6f09bf83a",
	conns: 2, batch: 64,
	nominal: 100, overload: 60000,
	mix:        []mixEntry{{kEstimate, 0.68}, {kNextHop, 0.20}, {kRoute, 0.10}, {kEstimateJSON, 0.02}},
	updateRate: 4, setups: 5,
	poolBatches: 256, poolPairs: 8192,
}, {
	name:  "cluster-churn",
	why:   "2 replicas behind a coordinator, reads racing open-loop +/-1 reweight batches: patch, recompile, hot swap and admin propagation run after setup",
	spec:  specRoadgrid,
	conns: 1, batch: 64,
	nominal: 50, overload: 30000,
	updateRate: 5, setups: 5,
	poolBatches: 256,
}}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmUp is the untimed window at the nominal rate every run starts
// with, after set-up.
const warmUp = time.Second

// lagFrac is the largest generator lag p99 (client.lag_ms_p99), as a
// share of one connection's send interval at the nominal rate, for
// which a run is scored: past it the generator, not the program, sets
// the pace.
const lagFrac = 1.0

// plan splits --seconds across a run's timed phases: the nominal
// window, each capacity probe and the update window after the reads.
type plan struct {
	nominal, probe, tail time.Duration
}

// probeShare is each capacity probe's share of --seconds.
const probeShare = 0.07

func newPlan(seconds, nominalShare, tailShare float64) plan {
	s := seconds * float64(time.Second)
	return plan{
		nominal: time.Duration(s * nominalShare),
		probe:   time.Duration(s * probeShare),
		tail:    time.Duration(s * tailShare),
	}
}
