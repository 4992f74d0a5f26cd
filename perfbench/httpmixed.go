package main

import (
	"context"
	"math/rand"
	"net/http"
	"time"

	"pde/internal/oracle"
	"pde/internal/server"
)

// httpStack is the http-mixed stack: one daemon and a keep-alive client
// capped at the workload's connection count.
type httpStack struct {
	d  *daemon
	hc *http.Client
	cl *server.Client
}

func (st *httpStack) close() {
	st.hc.CloseIdleConnections()
	st.d.close()
}

func bootHTTPStack(s *session) (*httpStack, error) {
	d, err := bootDaemon(s.w.spec, s.tr, 0)
	if err != nil {
		return nil, err
	}
	hc := httpClient(s.w.conns, s.tr != nil)
	st := &httpStack{d: d, hc: hc, cl: &server.Client{BaseURL: d.url, Shard: shardName, HTTP: hc}}
	if err := firstEstimate(context.Background(), d.url, hc); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// mixOp is one scheduled request of a mix: its kind and pool entry.
type mixOp struct {
	kind uint8
	pool int32
}

// mixSequence draws a seeded request sequence: kinds by the mix's
// shares, estimate/nexthop batches uniformly from the pool, route pairs
// Zipf-skewed over the pair pool (so the route LRU sees a hot set).
func mixSequence(r *rand.Rand, mix []mixEntry, batches, pairs, length int) []mixOp {
	var zipf *rand.Zipf
	if pairs > 1 {
		zipf = rand.NewZipf(r, 1.1, 1, uint64(pairs-1))
	}
	out := make([]mixOp, length)
	for i := range out {
		x := r.Float64()
		k := mix[len(mix)-1].kind
		for _, m := range mix {
			if x < m.share {
				k = m.kind
				break
			}
			x -= m.share
		}
		op := mixOp{kind: k}
		if k == kRoute {
			op.pool = int32(zipf.Uint64())
		} else {
			op.pool = int32(r.Intn(batches))
		}
		out[i] = op
	}
	return out
}

// lookupsPerOp is the mean point lookups one request of seq carries.
func lookupsPerOp(seq []mixOp, batch int) float64 {
	total := 0
	for _, op := range seq {
		if op.kind == kRoute {
			total++
		} else {
			total += batch
		}
	}
	return float64(total) / float64(len(seq))
}

// httpOp issues one mix request and reduces the reply for checking.
func httpOp(ctx context.Context, cl *server.Client, p *pools, op mixOp) reply {
	rep := reply{kind: op.kind, pool: op.pool}
	var fp string
	switch op.kind {
	case kEstimate, kEstimateJSON:
		as, f, err := cl.Estimate(ctx, p.batches[op.pool], op.kind == kEstimateJSON)
		if err != nil {
			return rep
		}
		fp, rep.hash = f, hashAnswers(as)
	case kNextHop:
		hs, f, err := cl.NextHop(ctx, p.batches[op.pool], false)
		if err != nil {
			return rep
		}
		fp, rep.hash = f, hashHops(hs)
	case kRoute:
		resp, err := cl.Route(ctx, []server.WirePair{p.pairs[op.pool]})
		if err != nil || len(resp.Routes) != 1 {
			return rep
		}
		rt := resp.Routes[0]
		fp, rep.hash = resp.Fingerprint, hashRoute(rt.OK, rt.Path, rt.Weight)
	}
	rep.fp, rep.got = parseFP(fp)
	return rep
}

func runHTTPMixed(w *workload, opt options) (*report, error) {
	s := newSession(w, opt, newPlan(opt.seconds, 0.35, 0.3))
	st, err := setupStack(s, func() (*httpStack, error) { return bootHTTPStack(s) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	s.setupSpans([]*daemon{st.d}, time.Now())
	ref := s.reference(st.d)

	n := st.d.g.N()
	pl := &pools{batches: uniformBatches(s.rng(1), n, w.poolBatches, w.batch)}
	pr := s.rng(4)
	for len(pl.pairs) < w.poolPairs {
		a, b := pr.Intn(n), pr.Intn(n)
		if a != b {
			pl.pairs = append(pl.pairs, server.WirePair{From: int32(a), To: int32(b)})
		}
	}
	seq := mixSequence(s.rng(2), w.mix, w.poolBatches, w.poolPairs, 1<<16)
	lookups := lookupsPerOp(seq, w.batch)
	opOf := func(p *phase, i int) mixOp { return seq[(int(p.id)*7919+i)%len(seq)] }

	var replies [][]reply
	run := func(p *phase) *phase {
		rs := make([]reply, len(p.recs))
		p.runSync(w.conns, func(_, i int) bool {
			ctx := context.Background()
			if s.tr != nil && s.tr.on.Load() {
				ctx = context.WithValue(ctx, ridKey{}, p.rid(i))
			}
			rs[i] = httpOp(ctx, st.cl, pl, opOf(p, i))
			return rs[i].got
		})
		replies = append(replies, p.keepSent(rs))
		return nil
	}

	s.offer(run, s.phase("warm-up", w.nominal, 0, warmUp))
	nom, _ := s.nominalAndCapacity(run, run, lookups)
	var tp *phase // the traced read window

	if s.tr != nil {
		settle()
		tp = s.phase("traced", w.nominal, 0, s.plan.nominal)
		before, err := st.cl.Stats(context.Background())
		if err != nil {
			return nil, err
		}
		s.tr.on.Store(true)
		s.offer(run, tp)
		s.tr.on.Store(false)
		after, err := st.cl.Stats(context.Background())
		if err != nil {
			return nil, err
		}
		s.clientSpans(tp, func(i int) string { return kindNames[opOf(tp, i).kind] })
		s.httpLayers(tp)
		s.statsDelta(before.Shards[shardName], after.Shards[shardName])
	}

	u, err := s.tailUpdates(st.d)
	if err != nil {
		return nil, err
	}
	s.windowsDone()
	gens, err := s.noopGenerations(ref, u)
	if err != nil {
		return nil, err
	}
	s.checkReplies(gens, pl, replies)

	if s.tr != nil {
		s.replays(ref, pl.batches)
	}
	if err := s.finish(tp, nom.latencyQ(0.5)); err != nil {
		return nil, err
	}
	return s.rep, nil
}

// statsDelta derives the batcher and route-cache metrics from two
// /v1/stats snapshots around the traced window.
func (s *session) statsDelta(a, b server.ShardStatus) {
	flushes := b.Batches.Flushes - a.Batches.Flushes
	reqs := b.Batches.Requests - a.Batches.Requests
	qs := b.Batches.Queries - a.Batches.Queries
	if flushes > 0 && reqs > 0 {
		perFlush := float64(qs) / float64(flushes)
		s.rep.set("batcher.avg_queries_per_flush", perFlush)
		s.rep.set("batcher.coalesce_ratio", perFlush/(float64(qs)/float64(reqs)))
	}
	hits := b.RouteCache.Hits - a.RouteCache.Hits
	misses := b.RouteCache.Misses - a.RouteCache.Misses
	if hits+misses > 0 {
		s.rep.set("route_cache.hit_rate", float64(hits)/float64(hits+misses))
	}
	s.rep.notef("batcher: %d flushes for %d requests / %d queries; route cache %d hits, %d misses", flushes, reqs, qs, hits, misses)
}

// httpLayers derives per-endpoint handler latency and the client-side
// remainder from the traced window's spans.
func (s *session) httpLayers(p *phase) {
	handler := map[string][]float64{}
	var net []float64
	byReq := map[int64]span{}
	s.tr.mu.Lock()
	for _, sp := range s.tr.spans {
		if sp.Layer == layerServer && sp.Req>>32 == p.id {
			byReq[sp.Req] = sp
		}
	}
	s.tr.mu.Unlock()
	for i, r := range p.recs {
		sp, ok := byReq[p.rid(i)]
		if !ok || !r.ok {
			continue
		}
		h := float64(sp.End-sp.Start) / 1e3
		handler[sp.Name] = append(handler[sp.Name], h)
		net = append(net, float64(r.done-r.sent)/1e3-h)
	}
	for _, ep := range []string{"estimate", "nexthop", "route"} {
		xs := handler[layerServer+"/v1/"+ep]
		s.rep.set("http."+ep+".handler_us_p50", quantile(xs, 0.5))
		s.rep.set("http."+ep+".handler_us_p99", quantile(xs, 0.99))
		s.rep.notef("http %-8s handler p50 %.1f us  p99 %.1f us  (%d samples)", ep, quantile(xs, 0.5), quantile(xs, 0.99), len(xs))
	}
	s.rep.set("http.net_us_p50", quantile(net, 0.5))
}

// noopGenerations checks the weight-preserving updates: each must keep
// the served fingerprint. The mirror patch replay runs only when
// tracing, for its per-layer timings.
func (s *session) noopGenerations(ref *generation, u *updater) ([]*generation, error) {
	applied := u.applied()
	if s.tr != nil {
		gens, steps, err := replayUpdates(ref, applied)
		if err != nil {
			return nil, err
		}
		s.patchMetrics(steps)
		u.checkUpdates(s, gens)
		return gens, nil
	}
	gens := []*generation{ref}
	for range applied {
		gens = append(gens, ref)
	}
	u.checkUpdates(s, gens)
	return gens, nil
}

// replays runs the in-process oracle and codec replays over batches.
func (s *session) replays(ref *generation, batches [][]oracle.Query) {
	all, sorted := oracleReplay(ref.o, batches)
	s.rep.set("oracle.answer_all_ns_per_q", all)
	s.rep.set("oracle.answer_sorted_ns_per_q", sorted)
	enc, dec, err := codecReplay(ref.o, batches)
	if err != nil {
		s.rep.problemf("codec replay: %v", err)
	}
	s.rep.set("codec.encode_ns_per_q", enc)
	s.rep.set("codec.decode_ns_per_q", dec)
	s.rep.notef("in-process replay: AnswerAll %.2f ns/q (request order), AnswerSorted %.2f ns/q (pre-sorted); codec encode %.2f / decode %.2f ns/q",
		all, sorted, enc, dec)
}
