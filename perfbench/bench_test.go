package main

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pde/internal/graph"
	"pde/internal/scheme"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json and workloads.json from the tables")

// TestDescribeFilesInSync keeps BENCHMARK.json and workloads.json equal
// to what the tables in this package generate.
func TestDescribeFilesInSync(t *testing.T) {
	for path, gen := range map[string]func() ([]byte, error){
		"../BENCHMARK.json": benchmarkJSON,
		"workloads.json":    describeJSON,
	} {
		want, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is out of date; run go test -run Describe -update", path)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
}

// tiny shrinks a workload to a smoke-test scale: small tables, low
// rates and one set-up.
func tiny(name string) *workload {
	w := *findWorkload(name)
	w.setups = 1
	w.wantFP = ""
	w.poolBatches, w.poolPairs = 8, 32
	switch name {
	case "wire-bulk":
		w.spec = scheme.Spec{Scheme: "oracle", Topology: "random", N: 64, Eps: 1, MaxW: 4, Seed: 4}
		w.batch, w.nominal, w.overload = 1024, 100, 400
	case "http-mixed":
		w.spec = scheme.Spec{Scheme: "oracle", Topology: "random", N: 48, Eps: 1, MaxW: 4, Seed: 4}
		w.nominal, w.overload = 200, 800
	case "cluster-churn":
		w.spec = scheme.Spec{Scheme: "oracle", Topology: "roadgrid", N: 64, Eps: 0.5, MaxW: 64, H: 8, Sigma: 4, Seed: 31}
		w.nominal, w.overload = 100, 400
	}
	return &w
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack")
	}
	for _, name := range []string{"wire-bulk", "http-mixed", "cluster-churn"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/end-to-end", true: "/traced"}[traced], func(t *testing.T) {
				w := tiny(name)
				rep, err := runWorkload(w, options{seed: 7, seconds: 2, traced: traced, spansDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.write(&out); err != nil {
					t.Fatal(err)
				}
				if rep.invalid != "" || len(rep.problems) > 0 || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("invalid=%q problems=%q failed=%d attempted=%d\n%s", rep.invalid, rep.problems, rep.failed, rep.attempted, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				last := out.String()
				last = last[strings.LastIndex(strings.TrimSpace(last), "\n")+1:]
				for _, d := range defs {
					if !strings.Contains(last, `"`+d.name+`":{"value":`) {
						t.Errorf("metric %s missing from the result line", d.name)
					}
				}
				if !strings.HasPrefix(last, `{"correct":true,`) {
					t.Errorf("result line: %s", last)
				}
				if traced {
					if e := rep.metrics["trace.reconcile_err_frac"]; e > reconcileTolerance {
						t.Errorf("self times reconcile within %v, past the %v tolerance", e, reconcileTolerance)
					}
				} else {
					for _, m := range []string{"setup_s", "query_p50_ms", "max_qps", "update_p50_ms", "update_p75_ms", "peak_heap_mb"} {
						if rep.metrics[m] <= 0 {
							t.Errorf("%s = %v, want > 0", m, rep.metrics[m])
						}
					}
				}
			})
		}
	}
}

// TestSeedReproducesStream checks that the generated inputs are a pure
// function of the seed.
func TestSeedReproducesStream(t *testing.T) {
	g, err := scheme.Spec{Topology: "roadgrid", N: 64, Eps: 0.5, MaxW: 64, Seed: 31}.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	w := findWorkload("http-mixed")
	gen := func(seed int64) []any {
		s := &session{opt: options{seed: seed}}
		b := uniformBatches(s.rng(1), 64, 4, 16)
		m := mixSequence(s.rng(2), w.mix, 4, 32, 256)
		c, err := churnBatches(s.rng(3), g, 64, 0.5, 8, 16, false)
		if err != nil {
			t.Fatal(err)
		}
		return []any{b, m, c}
	}
	if a, b := gen(11), gen(11); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different streams")
	}
	if a, b := gen(11), gen(12); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds generated the same streams")
	}
}

// TestCapacityCountsCompletionsInWindow checks the capacity probe's
// accounting: completions within the scored window per second, nothing
// from the lead-in or after the window, and only sent ops kept.
func TestCapacityCountsCompletionsInWindow(t *testing.T) {
	w := *findWorkload("wire-bulk")
	w.overload = 1000
	s := &session{w: &w, rep: newReport(&w, 1, false), plan: plan{probe: time.Second}}
	var kept []reply
	// Ops due before 0.7 s are sent on time and answered 1 ms later; the
	// rest are never sent, as when a probe outruns the stack.
	run := func(p *phase) *phase {
		for i := range p.recs {
			r := &p.recs[i]
			if r.due >= int64(700*time.Millisecond) {
				break
			}
			r.sent, r.done, r.ok = r.due, r.due+int64(time.Millisecond), true
		}
		kept = p.keepSent(make([]reply, len(p.recs)))
		return nil
	}
	// Completions in (0.2 s, 1.2 s]: the ops due in [0.2 s, 0.7 s).
	if got := s.capacity(run, 1); got != 500 {
		t.Fatalf("capacity = %v, want 500", got)
	}
	if len(kept) != 700 {
		t.Fatalf("keepSent kept %d replies, want the 700 sent", len(kept))
	}
}

func TestChurnBatchesKeepWeightsInRange(t *testing.T) {
	g, err := scheme.Spec{Topology: "roadgrid", N: 64, Eps: 0.5, MaxW: 8, Seed: 31}.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := churnBatches(rand.New(rand.NewSource(1)), g, 8, 0.5, 50, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if len(b) != 1 {
			t.Fatalf("batch of %d changes", len(b))
		}
		for _, c := range b {
			if c.Op != graph.OpReweight || c.W < 1 || c.W > 8 {
				t.Fatalf("bad change %+v", c)
			}
		}
	}
}
