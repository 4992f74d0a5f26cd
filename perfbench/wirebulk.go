package main

import (
	"fmt"
	"time"

	"pde/internal/graph"
	"pde/internal/oracle"
)

// wireStack is the wire-bulk stack: one daemon, its PDE2 listener and
// the benchmark's bound client connections.
type wireStack struct {
	d     *daemon
	conns []*pde2Conn
}

func (st *wireStack) close() {
	for _, c := range st.conns {
		c.nc.Close()
	}
	st.d.close()
}

func bootWireStack(s *session) (*wireStack, error) {
	d, err := bootDaemon(s.w.spec, s.tr, s.w.conns)
	if err != nil {
		return nil, err
	}
	st := &wireStack{d: d}
	for l := 0; l < s.w.conns; l++ {
		shard := shardName
		if s.tr != nil {
			shard = fmt.Sprintf("%s#%d", shardName, l) // the wire tracer's per-lane alias
		}
		c, err := dialPDE2(d.ws.Addr(), shard, s.w.batch)
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, c)
	}
	// Set-up ends when the stack has answered its first frame.
	if err := st.conns[0].roundTrip([]oracle.Query{{V: 0, S: 0}}); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func runWireBulk(w *workload, opt options) (*report, error) {
	s := newSession(w, opt, newPlan(opt.seconds, 0.35, 0.3))
	st, err := setupStack(s, func() (*wireStack, error) { return bootWireStack(s) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	s.setupSpans([]*daemon{st.d}, time.Now())
	ref := s.reference(st.d)

	n := st.d.g.N()
	frames := uniformBatches(s.rng(1), n, w.poolBatches, w.batch)
	order := s.rng(2).Perm(len(frames) * 16)
	frameOf := func(p *phase) func(i int) int {
		base := int(p.id) * 7919
		return func(i int) int { return order[(base+i)%len(order)] % len(frames) }
	}
	var replies [][]reply
	run := func(p *phase) *phase {
		rs := make([]reply, len(p.recs))
		p.runPDE2(st.conns, frames, frameOf(p), rs)
		replies = append(replies, p.keepSent(rs))
		return nil
	}

	s.offer(run, s.phase("warm-up", w.nominal, 0, warmUp))
	nom, _ := s.nominalAndCapacity(run, run, float64(w.batch))
	var tp *phase // the traced read window

	if s.tr != nil {
		settle()
		tp = s.phase("traced", w.nominal, 0, s.plan.nominal)
		wt := st.d.wt
		f0, s0 := wt.frames.Load(), wt.sorted.Load()
		for _, c := range st.conns {
			c.record, c.sentOrder = true, make([]int, 0, len(tp.recs))
		}
		s.tr.on.Store(true)
		a0 := allocCount()
		s.offer(run, tp)
		a1 := allocCount()
		s.tr.on.Store(false)
		served := wt.frames.Load() - f0
		s.clientSpans(tp, func(int) string { return "pde2_estimate" })
		s.wireSpans(tp, st, served)
		if served > 0 {
			s.rep.set("wire.sorted_frac", float64(wt.sorted.Load()-s0)/float64(served))
			s.rep.set("wire.allocs_per_frame", float64(a1-a0)/float64(served))
		}
		inflight := 0
		for _, c := range st.conns {
			inflight = max(inflight, c.maxInflight)
			c.record = false
		}
		s.rep.set("wire.inflight_max", float64(inflight))
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
	s.checkReplies(gens, &pools{batches: frames}, replies)

	if s.tr != nil {
		s.replays(ref, frames)
	}
	if err := s.finish(tp, nom.latencyQ(0.5)); err != nil {
		return nil, err
	}
	return s.rep, nil
}

// wireSpans pairs each lane's recorded server-side frame spans with the
// frames that lane sent, in order, and derives the wire layer metrics.
func (s *session) wireSpans(p *phase, st *wireStack, served int64) {
	var frameUS, answerUS, selfUS []float64
	matched := 0
	off := int64(p.start.Sub(s.tr.epoch))
	for l, c := range st.conns {
		spans := st.d.wt.laneFrames(l)
		if len(spans) != len(c.sentOrder) {
			s.rep.problemf("wire lane %d: %d frames sent but %d served while tracing", l, len(c.sentOrder), len(spans))
			continue
		}
		for k, i := range c.sentOrder {
			r := &p.recs[i]
			if !r.ok {
				continue
			}
			f := spans[k]
			rid := p.rid(i)
			// The server's last hook runs after the answer frame went to
			// the socket, so it can fire after the client already read the
			// frame; the span ends no later than the client's receipt.
			s.tr.add(span{Name: "wire.serve", Layer: layerWire, Req: rid, Start: f[0], End: min(f[3], off+r.done)})
			s.tr.add(span{Name: "oracle.answer", Layer: layerOracle, Req: rid, Start: f[1], End: f[2]})
			frame := time.Duration(r.done - r.sent)
			answer := time.Duration(f[2] - f[1])
			frameUS = append(frameUS, us(frame))
			answerUS = append(answerUS, us(answer))
			selfUS = append(selfUS, us(frame-answer))
			matched++
		}
	}
	s.rep.set("wire.frame_us_p50", quantile(frameUS, 0.5))
	s.rep.set("wire.frame_us_p99", quantile(frameUS, 0.99))
	s.rep.set("wire.answer_us_p50", quantile(answerUS, 0.5))
	s.rep.set("wire.self_us_p50", quantile(selfUS, 0.5))
	s.rep.notef("wire: %d frames served while tracing, %d matched to client frames; frame p50 %.1f us, answer p50 %.1f us, self p50 %.1f us",
		served, matched, quantile(frameUS, 0.5), quantile(answerUS, 0.5), quantile(selfUS, 0.5))
}

// tailUpdates runs the weight-preserving update window of the
// single-daemon workloads, after every read window: /v1/update's fixed
// cost (apply, damage check, patch merge, recompile, stretch probes,
// fingerprint, swap) on this table, with no instance to re-detect.
func (s *session) tailUpdates(d *daemon) (*updater, error) {
	w := s.w
	count := int(w.updateRate*s.plan.tail.Seconds()) + 16
	batches, err := churnBatches(s.rng(3), d.g, graph.Weight(w.spec.MaxW), w.spec.Eps, count, 0, true)
	if err != nil {
		return nil, err
	}
	u := newUpdater(d.url, s.tr, batches)
	settle()
	p := s.phase("updates", w.updateRate, 0, s.plan.tail)
	if s.tr != nil {
		s.tr.on.Store(true)
	}
	u.run(p)
	if s.tr != nil {
		s.tr.on.Store(false)
		s.clientSpans(p, func(int) string { return "update" })
	}
	s.countPhases(p)
	u.report(s, p)
	return u, nil
}

// checkReplies verifies every read reply in the order it was received.
func (s *session) checkReplies(gens []*generation, p *pools, replies [][]reply) {
	chk := newChecker(gens, p)
	for _, rs := range replies {
		for i := range rs {
			chk.check(&rs[i])
		}
	}
	s.rep.failed += chk.bad()
	s.rep.notef("answers: %s", chk)
	if chk.bad() > 0 {
		s.rep.problemf("%s", chk)
	}
}
