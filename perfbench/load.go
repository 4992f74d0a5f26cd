package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opRec is one scheduled operation of an open-loop phase. Times are
// nanoseconds since the phase's start; sent < 0 means the operation was
// never sent (the phase's drain deadline passed first).
type opRec struct {
	due, sent, done int64
	// lag is how late the generator itself sent the operation: sent
	// minus the later of its due time and the moment its lane became
	// free. Waiting for a busy lane is not lag. Latency is timed from
	// the due time either way, so lag is part of it; it is reported to
	// show whether the generator kept its schedule.
	lag int64
	ok  bool
}

// phase is one open-loop window: ops are due at a fixed rate, and each
// op is timed from its due time, so a stall that delays later sends is
// charged to those sends (no coordinated omission). The ops due in the
// phase's first lead stretch are sent and checked but not scored: they
// bring the queue to its steady state at this rate.
type phase struct {
	name  string
	id    int64 // request ids of this phase are id<<32 | op index
	rate  float64
	lead  time.Duration // unscored stretch the phase starts with
	dur   time.Duration // scored stretch, after the lead
	start time.Time
	recs  []opRec
	first int // index of the first scored op

	interval float64 // ns between due times
	next     atomic.Int64
	deadline int64 // ops not sent by this offset are abandoned
}

func newPhase(name string, id int64, rate float64, lead, dur, drain time.Duration) *phase {
	first := int(rate * lead.Seconds())
	n := max(first+int(rate*dur.Seconds()), first+1)
	p := &phase{
		name: name, id: id, rate: rate, lead: lead, dur: dur,
		recs:     make([]opRec, n),
		first:    first,
		interval: 1e9 / rate,
		deadline: int64(lead + dur + drain),
	}
	for i := range p.recs {
		p.recs[i].due = int64(float64(i) * p.interval)
		p.recs[i].sent = -1
	}
	return p
}

// scored returns the ops after the lead.
func (p *phase) scored() []opRec { return p.recs[p.first:] }

// joinPhases concatenates the scored ops of phases of one rate, in
// order, into one phase for reporting; each op keeps its times relative
// to its own phase's start.
func joinPhases(name string, ps []*phase) *phase {
	j := &phase{name: name, id: ps[0].id, rate: ps[0].rate, interval: ps[0].interval, start: ps[0].start}
	for _, p := range ps {
		j.recs = append(j.recs, p.scored()...)
		j.dur += p.dur
	}
	return j
}

func (p *phase) since() int64 { return int64(time.Since(p.start)) }

// startSoon is the phase's time zero: a millisecond out, so every lane
// is parked on its first op before the first one falls due.
func (p *phase) startSoon() time.Time { return time.Now().Add(time.Millisecond) }

// sleep waits d with nanosleep(2) on the calling thread. The runtime's
// own timers wake a sleeper up to a millisecond late on Linux (about
// 0.5 ms at the median), which would read as the program's latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// claim hands the calling lane the next op in due order, sleeping until
// it is due. It returns false once the schedule is exhausted or the
// drain deadline has passed.
func (p *phase) claim() (int, bool) {
	i := int(p.next.Add(1) - 1)
	if i >= len(p.recs) {
		return 0, false
	}
	free := p.since()
	if free > p.deadline {
		return 0, false
	}
	r := &p.recs[i]
	if d := r.due - free; d > 0 {
		sleep(time.Duration(d))
	}
	r.sent = p.since()
	r.lag = r.sent - max(r.due, free)
	return i, true
}

func (p *phase) rid(i int) int64 { return p.id<<32 | int64(i) }

// runSync drives a request/response phase: lanes goroutines (one per
// client connection) each claim the next due op and block on it. op
// reports whether the request succeeded.
func (p *phase) runSync(lanes int, op func(lane, i int) bool) {
	p.start = p.startSoon()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for {
				i, ok := p.claim()
				if !ok {
					return
				}
				okOp := op(l, i)
				r := &p.recs[i]
				r.done = p.since()
				r.ok = okOp
			}
		}(l)
	}
	wg.Wait()
}

// latenciesMS returns every scored op's latency in ms, timed from its
// due time: waiting for a busy connection and the generator's own
// lateness both count. Failed or unsent ops count as +Inf: they miss
// any limit.
func (p *phase) latenciesMS() []float64 {
	rs := p.scored()
	out := make([]float64, len(rs))
	for i, r := range rs {
		if r.sent < 0 || !r.ok {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(r.done-r.due) / 1e6
	}
	return out
}

func (p *phase) latencyQ(q float64) float64 { return quantile(p.latenciesMS(), q) }

func (p *phase) lagsMS() []float64 {
	rs := p.scored()
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = float64(max(r.lag, 0)) / 1e6
	}
	return xs
}

// tailWindow is the span of the windows tail percentiles are taken over.
const tailWindow = 200 * time.Millisecond

// windowedQ splits per-op values xs by due time into consecutive
// windows of tailWindow, widened until the q-quantile of each has at
// least ten samples beyond it, takes the q-quantile of each and returns
// their upper median and the window count: a tail percentile that a
// burst of host stalls hitting a minority of windows cannot swing, and
// that half of the windows missing a limit is enough to fail.
func (p *phase) windowedQ(xs []float64, q float64) (float64, int) {
	per := max(int(math.Ceil(10/(1-q)-1e-9)), int(p.rate*tailWindow.Seconds()))
	k := max(1, len(xs)/per)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(append([]float64(nil), xs[i*len(xs)/k:(i+1)*len(xs)/k]...), q)
	}
	sort.Float64s(qs)
	return qs[k/2], k
}

// counts reports ops sent and ops that failed among them.
func (p *phase) counts() (sent, failed int) {
	for _, r := range p.recs {
		if r.sent < 0 {
			continue
		}
		sent++
		if !r.ok {
			failed++
		}
	}
	return sent, failed
}

// keepSent returns a copy of the replies of the ops p sent, which are
// a prefix of its schedule because ops are claimed in due order. A
// capacity probe schedules several times the ops it can send; keeping
// only the sent ones keeps the heap the benchmark itself holds small.
func (p *phase) keepSent(rs []reply) []reply {
	n := 0
	for n < len(p.recs) && p.recs[n].sent >= 0 {
		n++
	}
	return append([]reply(nil), rs[:n]...)
}
