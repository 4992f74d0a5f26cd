package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/server"
)

// drain is how long a phase keeps sending overdue ops after its window.
const drain = 2 * time.Second

// leadIn is the unscored stretch at the same rate each nominal segment
// and capacity probe starts with, so that connections and the queue
// reach their steady state at that rate before anything is scored.
const leadIn = 200 * time.Millisecond

// session carries one run's shared state.
type session struct {
	w    *workload
	opt  options
	rep  *report
	tr   *tracer // nil in end-to-end runs
	heap *heapSampler
	seq  int64
	plan plan
	// bootPeaks is each set-up's peak HeapInuse in MiB; served marks
	// the end of the last set-up on the heap sampler's clock.
	bootPeaks []float64
	served    time.Duration
	// servedEnd marks the end of the timed windows (0: the whole run).
	servedEnd time.Duration
}

// windowsDone marks the end of the timed windows; checking and replays
// that follow do not count toward the serving heap peak.
func (s *session) windowsDone() { s.servedEnd = s.heap.now() }

func newSession(w *workload, opt options, pl plan) *session {
	s := &session{w: w, opt: opt, rep: newReport(w, opt.seed, opt.traced), plan: pl}
	if opt.traced {
		s.tr = newTracer()
	}
	s.heap = startHeapSampler(5 * time.Millisecond)
	return s
}

// rng derives an independent seeded stream for one purpose.
func (s *session) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(s.opt.seed*1_000_003 + purpose))
}

// phase makes the next open-loop phase: lead unscored, then dur scored.
func (s *session) phase(name string, rate float64, lead, dur time.Duration) *phase {
	s.seq++
	return newPhase(name, s.seq, rate, lead, dur, drain)
}

// offer runs one read phase and adds its operations, and those of the
// update phase it ran alongside, to the tallies.
func (s *session) offer(run readRunner, p *phase) *phase {
	u := run(p)
	s.countPhases(p, u)
	return u
}

type closer interface{ close() }

// setupStack boots the stack w.setups times (once when tracing), closing
// every stack but the last, and records the median wall as setup_s.
func setupStack[T closer](s *session, boot func() (T, error)) (T, error) {
	n := s.w.setups
	if s.tr != nil || n < 1 {
		n = 1
	}
	var st T
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			st.close()
			var none T
			st = none // let the collector reclaim it before the next boot
		}
		settle()
		t0, h0 := time.Now(), s.heap.now()
		var err error
		if st, err = boot(); err != nil {
			return st, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		s.served = s.heap.now()
		s.bootPeaks = append(s.bootPeaks, mib(s.heap.peak(h0, s.served+time.Millisecond)))
	}
	s.rep.set("setup_s", median(walls))
	s.rep.notef("setup_s %.4f s (median of %d boots: %s)", median(walls), n, fmtList(walls, "%.3f"))
	return st, nil
}

func fmtList(xs []float64, f string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf(f, x)
	}
	return out
}

// nominalSegments is how many pieces the nominal window is offered in.
// Spread over the run between capacity probes, a stretch of host stalls
// lasting a few seconds lands in a minority of the nominal windows,
// which the windowed tail percentiles then outvote.
const nominalSegments = 5

// readRunner offers one read phase and returns the update phase it ran
// alongside (nil when reads run alone).
type readRunner func(p *phase) *phase

// probesPerSegment is how many capacity probes follow each nominal
// segment. One probe's completion rate moved by up to a tenth between
// neighbouring probes on a shared 2-vCPU virtual machine; the median of
// ten, spread over the run, moves much less.
const probesPerSegment = 2

// nominalAndCapacity offers the nominal rate with run in nominalSegments
// segments and, in end-to-end runs, probesPerSegment capacity probes with
// probe after each segment. It reports the nominal metrics over the
// segments joined and max_qps as the median of the probes, and returns
// the joined read phase and the joined update phase (nil when reads run
// alone).
func (s *session) nominalAndCapacity(run, probe readRunner, lookups float64) (nom, up *phase) {
	var reads, ups []*phase
	var caps []float64
	for k := 0; k < nominalSegments; k++ {
		settle()
		p := s.phase(fmt.Sprintf("nominal %d", k+1), s.w.nominal, leadIn, s.plan.nominal/nominalSegments)
		reads = append(reads, p)
		if u := s.offer(run, p); u != nil {
			ups = append(ups, u)
		}
		for j := 0; s.tr == nil && j < probesPerSegment; j++ {
			caps = append(caps, s.capacity(probe, len(caps)+1))
		}
	}
	nom = joinPhases("nominal", reads)
	s.nominal(nom, lookups)
	if len(ups) > 0 {
		up = joinPhases("updates during nominal", ups)
	}
	if len(caps) > 0 {
		c := median(caps)
		s.rep.set("max_qps", c*lookups)
		s.rep.notef("max_qps %.6g lookups/s (%.1f req/s, the median of probes completing %s req/s)", c*lookups, c, fmtList(caps, "%.1f"))
	}
	return nom, up
}

// countPhases adds the operations of each non-nil phase to the tallies.
func (s *session) countPhases(ps ...*phase) {
	for _, p := range ps {
		if p != nil {
			s.rep.count(p.counts())
		}
	}
}

// nominal reports the fixed-rate window's latency, sample count and
// generator lag, and marks the run invalid when the generator lag p99
// exceeds lagFrac of one connection's send interval. Tail percentiles
// are upper medians over windows (see windowedQ). Only the median carries a
// bound: on a shared 2-vCPU virtual machine, stretches of host stalls
// lasting from seconds to minutes can cover a whole run, and they moved
// http-mixed's p75 up to 2.4-fold between runs; p75, p90 and p99 are
// printed, and reported per layer when tracing, without a bound.
func (s *session) nominal(p *phase, lookups float64) {
	lat := p.latenciesMS()
	p50 := quantile(append([]float64(nil), lat...), 0.5)
	p75, windows := p.windowedQ(lat, 0.75)
	p90, _ := p.windowedQ(lat, 0.9)
	p99, _ := p.windowedQ(lat, 0.99)
	lag, _ := p.windowedQ(p.lagsMS(), 0.99)
	s.rep.set("query_p50_ms", p50)
	s.rep.set("client.query_p75_ms", p75)
	s.rep.set("client.query_p90_ms", p90)
	s.rep.set("client.query_p99_ms", p99)
	s.rep.set("client.lag_ms_p99", lag)
	s.rep.notef("%s: %.0f req/s (%.0f lookups/s) for %s in %d segments on %d conn(s), %d samples: p50 %.4f ms, p75 %.4f ms, p90 %.4f ms, p99 %.4f ms (tails: upper median over %d windows), generator lag p99 %.4f ms",
		p.name, p.rate, p.rate*lookups, p.dur, nominalSegments, s.w.conns, len(p.recs), p50, p75, p90, p99, windows, lag)
	if interval := float64(s.w.conns) / s.w.nominal * 1e3; lag > lagFrac*interval {
		s.rep.invalid = fmt.Sprintf("generator lag p99 %.3f ms exceeds %.2f of the %.3f ms per-connection send interval", lag, lagFrac, interval)
	}
}

// capacity offers the workload's overload rate, several times what the
// stack serves, for one probe window after an unscored lead-in, and
// returns the requests completed per second within the window: the
// highest rate the stack sustains, past which the generator's backlog
// grows. Ops still unsent when the window ends are dropped, not
// drained, and ops completing after it are not counted.
func (s *session) capacity(run readRunner, n int) float64 {
	settle()
	s.seq++
	p := newPhase(fmt.Sprintf("probe %d", n), s.seq, s.w.overload, leadIn, s.plan.probe, 0)
	s.offer(run, p)
	lo, hi := int64(p.lead), int64(p.lead+p.dur)
	done := 0
	for _, r := range p.recs {
		if r.ok && r.done > lo && r.done <= hi {
			done++
		}
	}
	rate := float64(done) / p.dur.Seconds()
	s.rep.notef("probe %d: offered %.0f req/s for %s, completed %.1f req/s", n, p.rate, p.dur, rate)
	if rate > 0.8*p.rate {
		s.rep.notef("probe %d: completions reached 80%% of the offered rate, so the probe may read the offered rate rather than capacity", n)
	}
	return rate
}

// updater issues /v1/update batches in order from one admin connection.
type updater struct {
	cl      *server.Client
	tr      *tracer
	batches [][]graph.Change
	next    atomic.Int64
	// resp[k] is batch k's reply, nil unless it was accepted.
	resp []*server.UpdateResponse
}

func newUpdater(base string, tr *tracer, batches [][]graph.Change) *updater {
	return &updater{
		cl:      &server.Client{BaseURL: base, Shard: shardName, HTTP: httpClient(1, tr != nil)},
		tr:      tr,
		batches: batches,
		resp:    make([]*server.UpdateResponse, len(batches)),
	}
}

// run drives one update phase: one lane, so updates apply in order.
func (u *updater) run(p *phase) {
	p.runSync(1, func(_, i int) bool {
		k := int(u.next.Add(1) - 1)
		if k >= len(u.batches) {
			return false
		}
		ctx := context.Background()
		if u.tr != nil && u.tr.on.Load() {
			u.tr.adminReq.Store(p.rid(i))
			ctx = context.WithValue(ctx, ridKey{}, p.rid(i))
		}
		resp, err := u.cl.Update(ctx, server.UpdateRequest{Shard: shardName, Changes: wireChanges(u.batches[k])})
		if err != nil {
			return false
		}
		u.resp[k] = resp
		return true
	})
}

// applied returns the accepted batches in the order they were applied.
func (u *updater) applied() [][]graph.Change {
	n := int(min(u.next.Load(), int64(len(u.batches))))
	var out [][]graph.Change
	for k := 0; k < n; k++ {
		if u.resp[k] != nil {
			out = append(out, u.batches[k])
		}
	}
	return out
}

// report records update latency from p (timed from due) and the
// daemons' own accounting of every accepted update.
func (u *updater) report(s *session, p *phase) {
	_, failed := p.counts()
	p50, p75, p90 := p.latencyQ(0.5), p.latencyQ(0.75), p.latencyQ(0.9)
	s.rep.set("update_p50_ms", p50)
	s.rep.set("update_p75_ms", p75)
	s.rep.set("client.update_p90_ms", p90)
	s.rep.notef("updates: %.1f/s for %s: p50 %.4f ms  p75 %.4f ms  p90 %.4f ms  samples %d (failed %d)", p.rate, p.dur, p50, p75, p90, len(p.recs), failed)
	var srvMS, damage, rebuilt []float64
	delta := 0
	for _, r := range u.resp {
		if r == nil {
			continue
		}
		srvMS = append(srvMS, float64(r.UpdateNS)/1e6)
		damage = append(damage, r.Damage)
		rebuilt = append(rebuilt, float64(r.InstancesRebuilt))
		if r.Path == "delta" {
			delta++
		}
	}
	if len(srvMS) > 0 {
		s.rep.set("update.server_ms_p50", median(srvMS))
		s.rep.set("update.damage_mean", mean(damage))
		s.rep.set("update.instances_rebuilt_mean", mean(rebuilt))
		s.rep.set("update.delta_frac", float64(delta)/float64(len(srvMS)))
	}
}

// checkUpdates verifies every accepted update published the mirror's
// fingerprint for that step; gens[0] is the base generation.
func (u *updater) checkUpdates(s *session, gens []*generation) {
	k := 0
	for _, r := range u.resp {
		if r == nil {
			continue
		}
		k++
		fp, ok := parseFP(r.NewFingerprint)
		if !ok || k >= len(gens) || fp != gens[k].fp {
			s.rep.problemf("update %d published %s, the mirrored patch gives %016x", k, r.NewFingerprint, gens[min(k, len(gens)-1)].fp)
			return
		}
	}
}

func (s *session) patchMetrics(steps []patchStep) {
	var p, c, f []float64
	for _, st := range steps {
		p = append(p, ms(st.patch))
		c = append(c, ms(st.compile))
		f = append(f, ms(st.fingerprint))
	}
	s.rep.set("core.patch_ms_p50", median(p))
	s.rep.set("oracle.recompile_ms_p50", median(c))
	s.rep.set("core.refingerprint_ms_p50", median(f))
}

// clientSpans adds each op's root span and its queue span to the trace.
// Like the latency metrics, the root starts at the due time, so the
// roots sum to the latencies reported.
func (s *session) clientSpans(p *phase, kind func(i int) string) {
	off := int64(p.start.Sub(s.tr.epoch))
	for i, r := range p.recs {
		if r.sent < 0 || !r.ok {
			continue
		}
		rid := p.rid(i)
		start := off + r.due
		s.tr.add(span{Name: "client/" + kind(i), Layer: layerClient, Req: rid, Start: start, End: off + r.done})
		s.tr.add(span{Name: "client/queue", Layer: layerQueue, Req: rid, Start: start, End: off + r.sent})
	}
}

// finish reports the trace of the traced read window, the heap peak
// and writes the spans.
func (s *session) finish(reads *phase, untracedP50 float64) error {
	s.reportHeap()
	if s.tr == nil {
		return nil
	}
	tp := s.tr.analyze(reads.id)
	tracedP50 := reads.latencyQ(0.5)
	s.rep.set("trace.reconcile_err_frac", tp.errFrac)
	for _, l := range traceLayers {
		s.rep.set("trace.self_frac."+l, tp.selfFrac(l))
	}
	if untracedP50 > 0 {
		s.rep.set("trace.overhead_frac", tracedP50/untracedP50-1)
	}
	s.rep.notef("trace: %d requests, wall %.3f ms summed; self times reconcile within %.2f%% (tolerance %.0f%%)",
		tp.requests, float64(tp.wallNS)/1e6, 100*tp.errFrac, 100*reconcileTolerance)
	if tp.errFrac > reconcileTolerance {
		s.rep.problemf("per-layer self times sum to the request walls within %.2f%%, past the %.0f%% tolerance", 100*tp.errFrac, 100*reconcileTolerance)
	}
	for _, l := range traceLayers {
		s.rep.notef("  self %-8s %8.3f%%", l, 100*tp.selfFrac(l))
	}
	s.rep.notef("trace overhead: traced p50 %.4f ms vs untraced %.4f ms", tracedP50, untracedP50)
	path := filepath.Join(s.opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl", s.w.name, s.opt.seed))
	if err := s.tr.write(path); err != nil {
		return err
	}
	s.rep.notef("spans written to %s", path)
	return nil
}

// reference compiles the benchmark's own in-process copy of the
// daemon's tables, records the build layers' metrics, and checks the
// served fingerprint against the reference and the committed artifact.
func (s *session) reference(d *daemon) *generation {
	t0 := time.Now()
	o := oracle.Compile(d.res)
	t1 := time.Now()
	fp := d.res.Fingerprint()
	t2 := time.Now()
	res := d.res
	r := s.rep
	r.set("core.run_s", d.times.run.Seconds())
	r.set("core.active_rounds", float64(res.ActiveRounds))
	r.set("core.budget_rounds", float64(res.BudgetRounds))
	r.set("core.messages", float64(res.Messages))
	r.set("core.message_bits", float64(res.MessageBits))
	r.set("core.instances", float64(len(res.Instances)))
	r.set("oracle.compile_s", t1.Sub(t0).Seconds())
	r.set("oracle.entries", float64(o.Entries()))
	r.set("oracle.bytes", float64(o.Bytes()))
	r.set("core.fingerprint_ms", ms(t2.Sub(t1)))
	r.set("server.new_s", d.times.newSrv.Seconds())
	r.notef("table %s n=%d m=%d: fingerprint %016x, %d instances, %d budget rounds, %d entries, %d bytes",
		s.w.spec.Topology, d.g.N(), d.g.M(), fp, len(res.Instances), res.BudgetRounds, o.Entries(), o.Bytes())
	r.notef("build: graph %.4f s, core.Run %.4f s, server.NewWithPrebuilt %.4f s (compile, stretch probes, fingerprint); side calls: oracle.Compile %.4f s, Fingerprint %.3f ms",
		d.times.graph.Seconds(), d.times.run.Seconds(), d.times.newSrv.Seconds(), t1.Sub(t0).Seconds(), ms(t2.Sub(t1)))
	if fp != d.fp {
		r.problemf("daemon serves fingerprint %016x, the in-process build is %016x", d.fp, fp)
	}
	if want := s.w.wantFP; want != "" {
		if got := fmt.Sprintf("%016x", d.fp); got != want {
			r.problemf("daemon serves fingerprint %s, the committed artifact for this spec pins %s", got, want)
		} else {
			r.notef("fingerprint matches the committed artifact (%s)", want)
		}
	}
	return &generation{fp: fp, g: d.g, res: res, o: o, rtr: core.NewRouterWith(d.g, res, o)}
}

// reportHeap sets peak_heap_mb from the HeapInuse samples, robust to
// where a collection happens to fall: the larger of the median over the
// boots of each boot's peak and the median over one-second windows of
// serving (everything after set-up) of each window's peak.
func (s *session) reportHeap() {
	s.heap.Stop()
	end := s.servedEnd
	if end == 0 {
		end = s.heap.now()
	}
	var windows []float64
	for t := s.served; t+time.Second <= end; t += time.Second {
		windows = append(windows, mib(s.heap.peak(t, t+time.Second)))
	}
	boot, serve := median(s.bootPeaks), median(windows)
	s.rep.set("peak_heap_mb", max(boot, serve))
	s.rep.notef("peak_heap_mb %.3f MiB: median boot peak %.3f MiB (%s), median per-second serving peak %.3f MiB over %d s (HeapInuse every 5 ms; client, daemons and coordinator share the heap)",
		max(boot, serve), boot, fmtList(s.bootPeaks, "%.1f"), serve, len(windows))
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// setupSpans records a traced boot: one root per daemon (request id
// -1-i) with the build steps as children, ending when the stack
// answered its first query.
func (s *session) setupSpans(ds []*daemon, end time.Time) {
	if s.tr == nil {
		return
	}
	at := func(t time.Time) int64 { return int64(t.Sub(s.tr.epoch)) }
	for i, d := range ds {
		req := int64(-1 - i)
		t := d.began
		s.tr.add(span{Name: "setup", Layer: layerSetup, Req: req, Start: at(t), End: at(end)})
		for _, step := range []struct {
			name string
			d    time.Duration
		}{{"graph.generate", d.times.graph}, {"core.run", d.times.run}, {"server.new", d.times.newSrv}} {
			s.tr.add(span{Name: step.name, Layer: layerSetup, Req: req, Start: at(t), End: at(t.Add(step.d))})
			t = t.Add(step.d)
		}
		s.tr.add(span{Name: "listen+first_query", Layer: layerSetup, Req: req, Start: at(t), End: at(end)})
	}
}
