package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pde/internal/cluster"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/server"
)

// churnReplicas is the replica count behind the coordinator.
const churnReplicas = 2

// churnStack is the cluster-churn stack: replicas of one shard behind an
// in-process coordinator, and the read connection to it.
type churnStack struct {
	ds []*daemon
	co *coordinator
	hc *http.Client
	cl *server.Client
}

func (st *churnStack) close() {
	st.hc.CloseIdleConnections()
	st.co.close()
	for _, d := range st.ds {
		d.close()
	}
}

func bootChurnStack(s *session) (*churnStack, error) {
	ds, err := bootDaemons(s.w.spec, s.tr, churnReplicas)
	if err != nil {
		return nil, err
	}
	co, err := bootCoordinator(ds, s.tr)
	if err != nil {
		for _, d := range ds {
			d.close()
		}
		return nil, err
	}
	hc := httpClient(s.w.conns, s.tr != nil)
	st := &churnStack{ds: ds, co: co, hc: hc, cl: &server.Client{BaseURL: co.url, Shard: shardName, HTTP: hc}}
	if err := firstEstimate(context.Background(), co.url, hc); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func runClusterChurn(w *workload, opt options) (*report, error) {
	s := newSession(w, opt, newPlan(opt.seconds, 0.5, 0))
	st, err := setupStack(s, func() (*churnStack, error) { return bootChurnStack(s) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	s.setupSpans(st.ds, time.Now())
	ref := s.reference(st.ds[0])
	for _, d := range st.ds[1:] {
		if d.fp != ref.fp {
			s.rep.problemf("replicas boot with different fingerprints: %016x vs %016x", d.fp, ref.fp)
		}
	}

	pl := &pools{batches: listBatches(s.rng(1), ref.res, w.poolBatches, w.batch)}
	// Enough batches for every window updates run in: warm-up, the
	// nominal segments after their lead-ins and the traced window. Each
	// change is the lowest-damage ±1 of 16 seeded candidates (see
	// churnBatches).
	updateSecs := warmUp + s.plan.nominal + nominalSegments*leadIn + s.plan.nominal
	batches, err := churnBatches(s.rng(3), ref.g, graph.Weight(w.spec.MaxW), w.spec.Eps, int(w.updateRate*updateSecs.Seconds())+32, 16, false)
	if err != nil {
		return nil, err
	}
	u := newUpdater(st.co.url, s.tr, batches)
	poolOf := func(p *phase, i int) int { return (int(p.id)*7919 + i*31) % len(pl.batches) }

	var replies [][]reply
	// offer offers reads at p's rate and, with updates set, has the
	// admin connection offer updates at the workload's rate over the
	// same window.
	offer := func(p *phase, updates bool) *phase {
		var up *phase
		var wg sync.WaitGroup
		if updates {
			up = s.phase("updates during "+p.name, w.updateRate, p.lead, p.dur)
			wg.Add(1)
			go func() {
				defer wg.Done()
				u.run(up)
			}()
		}
		rs := make([]reply, len(p.recs))
		p.runSync(w.conns, func(_, i int) bool {
			ctx := context.Background()
			if s.tr != nil && s.tr.on.Load() {
				ctx = context.WithValue(ctx, ridKey{}, p.rid(i))
			}
			pool := poolOf(p, i)
			as, fps, err := st.cl.Estimate(ctx, pl.batches[pool], false)
			if err != nil {
				return false
			}
			fp, ok := parseFP(fps)
			rs[i] = reply{kind: kEstimate, pool: int32(pool), fp: fp, hash: hashAnswers(as), got: ok}
			return ok
		})
		wg.Wait()
		replies = append(replies, p.keepSent(rs))
		return up
	}

	run := func(p *phase) *phase { return offer(p, true) }
	// The capacity probes offer reads alone: the read capacity through
	// the coordinator. Update bursts landing at random within a short
	// probe would swing it between runs.
	reads := func(p *phase) *phase { return offer(p, false) }

	s.offer(run, s.phase("warm-up", w.nominal, 0, warmUp))
	nom, up := s.nominalAndCapacity(run, reads, float64(w.batch))
	u.report(s, up)
	var tp *phase // the traced read window

	if s.tr != nil {
		settle()
		before, err := s.clusterCounters(st)
		if err != nil {
			return nil, err
		}
		tp = s.phase("traced", w.nominal, 0, s.plan.nominal)
		s.tr.on.Store(true)
		tup := s.offer(run, tp)
		s.tr.on.Store(false)
		after, err := s.clusterCounters(st)
		if err != nil {
			return nil, err
		}
		s.clientSpans(tp, func(int) string { return "estimate" })
		s.clientSpans(tup, func(int) string { return "update" })
		s.httpLayers(tp)
		s.clusterLayers(tp, tup, before, after)
	}

	s.windowsDone()
	gens, steps, err := replayUpdates(ref, u.applied())
	if err != nil {
		return nil, err
	}
	s.patchMetrics(steps)
	u.checkUpdates(s, gens)
	s.checkReplies(gens, pl, replies)
	s.rep.notef("mirror: %d updates applied, %d generations", len(gens)-1, len(gens))
	if err := s.checkFinal(st, gens[len(gens)-1]); err != nil {
		return nil, err
	}
	if s.tr != nil {
		s.replays(ref, pl.batches)
	}
	if err := s.finish(tp, nom.latencyQ(0.5)); err != nil {
		return nil, err
	}
	return s.rep, nil
}

// checkFinal cold-builds the mirrored final graph and requires every
// replica to serve its fingerprint and the coordinator to answer every
// (v, s) pair of it bit for bit.
func (s *session) checkFinal(st *churnStack, last *generation) error {
	cold, err := scheme.BuildOn(s.w.spec, last.g)
	if err != nil {
		return fmt.Errorf("cold build of the final graph: %w", err)
	}
	if cold.Fingerprint() != last.fp {
		s.rep.problemf("cold build of the final graph is %016x, the mirrored patch chain %016x", cold.Fingerprint(), last.fp)
	}
	for i, d := range st.ds {
		got, _ := d.srv.Fingerprint(shardName)
		if fp, _ := parseFP(got); fp != cold.Fingerprint() {
			s.rep.problemf("replica %d serves %s after the window, the cold build is %016x", i, got, cold.Fingerprint())
		}
	}
	n := last.g.N()
	qs := make([]oracle.Query, 0, n*n)
	for v := 0; v < n; v++ {
		for t := 0; t < n; t++ {
			qs = append(qs, oracle.Query{V: int32(v), S: int32(t)})
		}
	}
	want := make([]oracle.Answer, len(qs))
	cold.AnswerInto(qs, want, 1)
	got, fp, err := st.cl.Estimate(context.Background(), qs, false)
	if err != nil {
		return fmt.Errorf("final all-pairs read: %w", err)
	}
	diff := 0
	for i := range want {
		if got[i] != want[i] {
			diff++
		}
	}
	if f, _ := parseFP(fp); f != cold.Fingerprint() || diff > 0 {
		s.rep.problemf("final all-pairs read (stamped %s): %d of %d answers differ from the cold build", fp, diff, len(qs))
	}
	s.rep.notef("final check: cold build %016x, %d all-pairs answers through the coordinator identical: %v",
		cold.Fingerprint(), len(qs), diff == 0)
	return nil
}

// clusterCounters reads the coordinator's routing counters and sums the
// replicas' serving stats.
func (s *session) clusterCounters(st *churnStack) (clusterSnap, error) {
	var snap clusterSnap
	cs, err := cluster.FetchStatus(context.Background(), st.co.url, st.hc)
	if err != nil {
		return snap, err
	}
	snap.failovers, snap.retries = cs.Failovers, cs.RetryWaits
	for _, d := range st.ds {
		ds, err := (&server.Client{BaseURL: d.url, Shard: shardName, HTTP: st.hc}).Stats(context.Background())
		if err != nil {
			return snap, err
		}
		sh := ds.Shards[shardName]
		snap.shard.Batches.Flushes += sh.Batches.Flushes
		snap.shard.Batches.Requests += sh.Batches.Requests
		snap.shard.Batches.Queries += sh.Batches.Queries
		snap.shard.RouteCache.Hits += sh.RouteCache.Hits
		snap.shard.RouteCache.Misses += sh.RouteCache.Misses
	}
	return snap, nil
}

type clusterSnap struct {
	failovers, retries int64
	shard              server.ShardStatus
}

// clusterLayers derives the relay and propagation costs, failover
// counters and the read tail with and without an update in flight.
func (s *session) clusterLayers(reads, ups *phase, before, after clusterSnap) {
	s.statsDelta(before.shard, after.shard)
	s.rep.set("cluster.failovers", float64(after.failovers-before.failovers))
	s.rep.set("cluster.retries", float64(after.retries-before.retries))

	coord := map[int64]int64{}
	daemon := map[int64]int64{}
	s.tr.mu.Lock()
	for _, sp := range s.tr.spans {
		switch sp.Layer {
		case layerCluster:
			coord[sp.Req] += sp.End - sp.Start
		case layerServer:
			daemon[sp.Req] += sp.End - sp.Start
		}
	}
	s.tr.mu.Unlock()
	var relay, prop []float64
	for i := range reads.recs {
		if c, ok := coord[reads.rid(i)]; ok {
			relay = append(relay, float64(c-daemon[reads.rid(i)])/1e3)
		}
	}
	for i := range ups.recs {
		if c, ok := coord[ups.rid(i)]; ok {
			prop = append(prop, float64(c-daemon[ups.rid(i)])/1e6)
		}
	}
	s.rep.set("cluster.relay_us_p50", quantile(relay, 0.5))
	s.rep.set("cluster.propagate_ms_p50", quantile(prop, 0.5))

	// Reads whose send→done interval overlaps any update's.
	type iv struct{ a, b time.Time }
	var win []iv
	for _, r := range ups.recs {
		if r.sent >= 0 {
			win = append(win, iv{ups.start.Add(time.Duration(r.sent)), ups.start.Add(time.Duration(r.done))})
		}
	}
	lat := reads.latenciesMS()
	var during, idle []float64
	for i, r := range reads.recs {
		if r.sent < 0 {
			continue
		}
		a, b := reads.start.Add(time.Duration(r.sent)), reads.start.Add(time.Duration(r.done))
		overlap := false
		for _, w := range win {
			if a.Before(w.b) && w.a.Before(b) {
				overlap = true
				break
			}
		}
		if overlap {
			during = append(during, lat[i])
		} else {
			idle = append(idle, lat[i])
		}
	}
	s.rep.set("read.p99_ms_during_update", quantile(during, 0.99))
	s.rep.set("read.p99_ms_idle", quantile(idle, 0.99))
	s.rep.notef("cluster: relay p50 %.1f us, propagate p50 %.3f ms; reads p99 %.3f ms during updates (%d) vs %.3f ms idle (%d)",
		quantile(relay, 0.5), quantile(prop, 0.5), quantile(during, 0.99), len(during), quantile(idle, 0.99), len(idle))
}
