package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
)

// replayPasses is how many times each in-process replay runs; the
// median pass is reported.
const replayPasses = 3

func medianPass(passes int, f func() time.Duration) time.Duration {
	xs := make([]float64, passes)
	for i := range xs {
		xs[i] = float64(f())
	}
	return time.Duration(median(xs))
}

func totalQueries(bs [][]oracle.Query) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}

// oracleReplay answers the workload's own batches in-process, once in
// wire order through AnswerAll and once pre-sorted by (v, s) through
// AnswerSorted — the fair comparator for the PDE2 path, which sorts
// each frame before answering. Sorting is outside the timed region.
func oracleReplay(o *oracle.Oracle, bs [][]oracle.Query) (allNS, sortedNS float64) {
	outs := make([][]oracle.Answer, len(bs))
	sorted := make([][]oracle.Query, len(bs))
	for i, b := range bs {
		outs[i] = make([]oracle.Answer, len(b))
		sorted[i] = slices.Clone(b)
		slices.SortFunc(sorted[i], func(x, y oracle.Query) int {
			if x.V != y.V {
				return int(x.V - y.V)
			}
			return int(x.S - y.S)
		})
	}
	q := float64(totalQueries(bs))
	all := medianPass(replayPasses, func() time.Duration {
		t0 := time.Now()
		for i, b := range bs {
			o.AnswerAll(b, outs[i])
		}
		return time.Since(t0)
	})
	srt := medianPass(replayPasses, func() time.Duration {
		t0 := time.Now()
		for i, b := range sorted {
			o.AnswerSorted(b, outs[i])
		}
		return time.Since(t0)
	})
	return float64(all) / q, float64(srt) / q
}

// codecReplay runs the HTTP binary codec over the workload's batches:
// encode is EncodeQueries (client) plus EncodeAnswers (daemon), decode
// is DecodeQueries (daemon) plus DecodeAnswers (client).
func codecReplay(o *oracle.Oracle, bs [][]oracle.Query) (encNS, decNS float64, err error) {
	answers := make([][]oracle.Answer, len(bs))
	qbufs := make([][]byte, len(bs))
	abufs := make([][]byte, len(bs))
	for i, b := range bs {
		answers[i] = make([]oracle.Answer, len(b))
		o.AnswerAll(b, answers[i])
	}
	q := float64(totalQueries(bs))
	enc := medianPass(replayPasses, func() time.Duration {
		t0 := time.Now()
		for i, b := range bs {
			qbufs[i] = server.EncodeQueries(b)
			abufs[i] = server.EncodeAnswers(answers[i])
		}
		return time.Since(t0)
	})
	dec := medianPass(replayPasses, func() time.Duration {
		t0 := time.Now()
		for i := range bs {
			if _, e := server.DecodeQueries(qbufs[i]); e != nil {
				err = e
			}
			if _, e := server.DecodeAnswers(abufs[i]); e != nil {
				err = e
			}
		}
		return time.Since(t0)
	})
	return float64(enc) / q, float64(dec) / q, err
}

// churnBatches draws count single-change update batches against a
// mirror of g, each reweighting one edge by ±1 within [1, maxW]. With
// probe > 1 the change is the one of probe seeded candidates whose ±1
// moves the fewest rounding instances (ties go to the earliest draw):
// localized weight jitter, so each update re-detects about the same
// share of the hierarchy instead of a seed-dependent 1 to 10 instances.
// noop keeps every weight: the update path's fixed cost with nothing to
// re-detect.
func churnBatches(r *rand.Rand, g *graph.Graph, maxW graph.Weight, eps float64, count, probe int, noop bool) ([][]graph.Change, error) {
	levels := core.NumInstances(maxW, eps)
	out := make([][]graph.Change, 0, count)
	for len(out) < count {
		var edges []graph.Change
		g.Edges(func(u, v int, w graph.Weight, _ int32) {
			edges = append(edges, graph.Change{Op: graph.OpReweight, U: u, V: v, W: w})
		})
		best, bestCost := graph.Change{}, levels+1
		for try := 0; try < max(probe, 1); try++ {
			c := edges[r.Intn(len(edges))]
			w := c.W
			switch {
			case noop:
			case c.W <= 1:
				c.W++
			case c.W >= maxW:
				c.W--
			case r.Intn(2) == 0:
				c.W--
			default:
				c.W++
			}
			if cost := movedInstances(w, c.W, eps, levels); cost < bestCost {
				best, bestCost = c, cost
			}
		}
		batch := []graph.Change{best}
		g2, _, err := g.ApplyChanges(batch)
		if err != nil {
			return nil, fmt.Errorf("drawing update batch %d: %w", len(out), err)
		}
		g = g2
		out = append(out, batch)
	}
	return out, nil
}

// movedInstances counts the rounding instances whose subdivided length
// ⌈w/(1+ε)^i⌉ differs between weights w and w2 (core.AffectedInstances
// for one edge).
func movedInstances(w, w2 graph.Weight, eps float64, levels int) int {
	n := 0
	for i := 0; i < levels; i++ {
		b := math.Pow(1+eps, float64(i))
		if max(math.Ceil(float64(w)/b), 1) != max(math.Ceil(float64(w2)/b), 1) {
			n++
		}
	}
	return n
}

// patchStep times one mirrored update's public calls.
type patchStep struct{ patch, compile, fingerprint time.Duration }

// replayUpdates applies the batches the daemons accepted, in order, to
// the benchmark's own mirror: core.Patch, then oracle.Compile, then
// Result.Fingerprint. It returns the generation sequence (base first)
// the daemons should have published.
func replayUpdates(base *generation, batches [][]graph.Change) ([]*generation, []patchStep, error) {
	gens := []*generation{base}
	steps := make([]patchStep, 0, len(batches))
	prev := base
	for i, b := range batches {
		g2, _, err := prev.g.ApplyChanges(b)
		if err != nil {
			return nil, nil, fmt.Errorf("mirror update %d: %w", i, err)
		}
		t0 := time.Now()
		res, _, err := core.Patch(g2, congest.Config{Parallel: true}, prev.res)
		if err != nil {
			return nil, nil, fmt.Errorf("mirror patch %d: %w", i, err)
		}
		t1 := time.Now()
		o := oracle.Compile(res)
		t2 := time.Now()
		fp := res.Fingerprint()
		t3 := time.Now()
		steps = append(steps, patchStep{patch: t1.Sub(t0), compile: t2.Sub(t1), fingerprint: t3.Sub(t2)})
		prev = &generation{fp: fp, g: g2, res: res, o: o, rtr: core.NewRouterWith(g2, res, o)}
		gens = append(gens, prev)
	}
	return gens, steps, nil
}

func wireChanges(b []graph.Change) []server.WireChange {
	out := make([]server.WireChange, len(b))
	for i, c := range b {
		out[i] = server.WireChange{Op: "reweight", U: c.U, V: c.V, W: c.W}
	}
	return out
}
