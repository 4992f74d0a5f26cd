package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/oracle"
	"pde/internal/wire"
)

// Layers a span can be charged to. The request root is "client": its
// self time is client encode/decode plus loopback transfer.
const (
	layerQueue   = "queue"   // due time → send: waiting for a free connection
	layerClient  = "client"  // client codec, sockets, loopback
	layerCluster = "cluster" // coordinator relay and admin propagation
	layerServer  = "server"  // daemon HTTP handler (parse, batcher, codec, LRU, patch)
	layerWire    = "wire"    // PDE2 frame handling: validate, sort, scatter/encode
	layerOracle  = "oracle"  // snapshot answer call
	layerSetup   = "setup"   // boot steps, written out but not request trees
)

var traceLayers = []string{layerQueue, layerClient, layerCluster, layerServer, layerWire, layerOracle}

// reconcileTolerance is how far the summed per-layer self times may
// drift from the summed request walls before the trace is reported as
// not reconciling (children escaping their parent or overlapping
// siblings both show up as excess).
const reconcileTolerance = 0.01

// span is one timed call across a layer boundary. Start and End are ns
// since the tracer's epoch; Parent is an index into the span list (-1
// for a request root) and is resolved when the run ends.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	depth  int
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// adminReq is the request id of the update the admin lane has in
	// flight; daemon handler spans for /v1/update carry no request id of
	// their own (the coordinator re-issues them), and the admin lane
	// sends one update at a time.
	adminReq atomic.Int64
	// on gates the wrappers: they record only inside the traced window,
	// so the untraced phases of a traced run pay one atomic load.
	on atomic.Bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware times every request through h as one span of layer,
// keyed by the rid query parameter the benchmark client adds.
func (t *tracer) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		req, err := strconv.ParseInt(r.URL.Query().Get("rid"), 10, 64)
		if err != nil {
			if r.URL.Path != "/v1/update" {
				return // stats and health probes are not traced requests
			}
			req = t.adminReq.Load()
		}
		t.add(span{Name: layer + r.URL.Path, Layer: layer, Req: req, Start: start, End: end})
	})
}

// ridTransport appends the traced request id from the request context
// to the URL, so every hop (the coordinator relays the query string
// verbatim) can tag its span.
type ridTransport struct{ base http.RoundTripper }

type ridKey struct{}

func (rt ridTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if rid, ok := r.Context().Value(ridKey{}).(int64); ok {
		r = r.Clone(r.Context())
		q := r.URL.RawQuery
		if q != "" {
			q += "&"
		}
		r.URL.RawQuery = q + "rid=" + strconv.FormatInt(rid, 10)
	}
	return rt.base.RoundTrip(r)
}

// --- PDE2 wrappers -------------------------------------------------------

// wireTrace wraps the daemon's wire.Backend. Each client connection
// binds its own alias "<shard>#<lane>", so the spans of one connection
// arrive in frame order and the k-th one belongs to that lane's k-th
// frame: the wire server is otherwise opaque about which frame a
// Snapshot call serves.
type wireTrace struct {
	be    wire.Backend
	t     *tracer
	mu    sync.Mutex
	lanes []*wireLane
	// sorted counts frames answered through AnswerSorted.
	sorted atomic.Int64
	frames atomic.Int64
}

// wireLane records one connection's frame spans in arrival order.
type wireLane struct {
	inner wire.Shard
	wt    *wireTrace
	mu    sync.Mutex
	open  int64 // start of the frame being served
	ans   [2]int64
	snap  tracedSnap // reused per frame, so tracing adds no allocation
	// frames[k] = {serve start, answer start, answer end, serve end}
	frames [][4]int64
}

func newWireTrace(be wire.Backend, t *tracer, lanes int) *wireTrace {
	return &wireTrace{be: be, t: t, lanes: make([]*wireLane, lanes)}
}

func (wt *wireTrace) WireShard(name string) (wire.Shard, bool) {
	base, lane := name, -1
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '#' {
			base = name[:i]
			l, err := strconv.Atoi(name[i+1:])
			if err != nil || l < 0 || l >= len(wt.lanes) {
				return nil, false
			}
			lane = l
			break
		}
	}
	sh, ok := wt.be.WireShard(base)
	if !ok || lane < 0 {
		return sh, ok
	}
	wl := &wireLane{inner: sh, wt: wt, frames: make([][4]int64, 0, 1<<14)}
	wt.mu.Lock()
	wt.lanes[lane] = wl
	wt.mu.Unlock()
	return wl, true
}

func (wt *wireTrace) WireShardNames() string { return wt.be.WireShardNames() }

// Snapshot opens the frame's wire.serve span: the wire server loads the
// snapshot right after reading and length-checking a query frame.
func (wl *wireLane) Snapshot() wire.Snapshot {
	if !wl.wt.t.on.Load() {
		return wl.inner.Snapshot()
	}
	wl.open = wl.wt.t.now()
	wl.snap = tracedSnap{inner: wl.inner.Snapshot(), wl: wl}
	return &wl.snap
}

// ObserveWire closes the span: it runs after the answer frame has been
// handed to the connection's buffered writer.
func (wl *wireLane) ObserveWire(ft wire.FrameType, queries int) {
	if !wl.wt.t.on.Load() {
		wl.inner.ObserveWire(ft, queries)
		return
	}
	end := wl.wt.t.now()
	wl.inner.ObserveWire(ft, queries)
	wl.wt.frames.Add(1)
	wl.mu.Lock()
	wl.frames = append(wl.frames, [4]int64{wl.open, wl.ans[0], wl.ans[1], end})
	wl.mu.Unlock()
}

// tracedSnap times the answer call and delegates the SortedAnswerer
// capability, so tracing never moves a frame off the sorted path.
type tracedSnap struct {
	inner wire.Snapshot
	wl    *wireLane
}

func (s *tracedSnap) NodeCount() int32       { return s.inner.NodeCount() }
func (s *tracedSnap) FingerprintRaw() uint64 { return s.inner.FingerprintRaw() }

func (s *tracedSnap) AnswerInto(qs []oracle.Query, out []oracle.Answer, workers int) {
	s.wl.ans[0] = s.wl.wt.t.now()
	s.inner.AnswerInto(qs, out, workers)
	s.wl.ans[1] = s.wl.wt.t.now()
}

func (s *tracedSnap) AnswerSorted(qs []oracle.Query, out []oracle.Answer) bool {
	sa, ok := s.inner.(wire.SortedAnswerer)
	if !ok {
		return false
	}
	s.wl.ans[0] = s.wl.wt.t.now()
	done := sa.AnswerSorted(qs, out)
	s.wl.ans[1] = s.wl.wt.t.now()
	if done {
		s.wl.wt.sorted.Add(1)
	}
	return done
}

// laneFrames returns the recorded frame spans of one lane.
func (wt *wireTrace) laneFrames(lane int) [][4]int64 {
	wt.mu.Lock()
	wl := wt.lanes[lane]
	wt.mu.Unlock()
	if wl == nil {
		return nil
	}
	wl.mu.Lock()
	defer wl.mu.Unlock()
	return append([][4]int64(nil), wl.frames...)
}

// --- analysis --------------------------------------------------------------

var layerDepth = map[string]int{layerClient: 0, layerQueue: 1, layerCluster: 1, layerServer: 2, layerWire: 2, layerOracle: 3}

// traceReport is what the span tree says about one traced window.
type traceReport struct {
	selfNS   map[string]int64
	wallNS   int64 // summed request root durations
	requests int
	errFrac  float64 // |Σ self − Σ wall| / Σ wall
}

func (r *traceReport) selfFrac(layer string) float64 {
	if r.wallNS == 0 {
		return 0
	}
	return float64(r.selfNS[layer]) / float64(r.wallNS)
}

// analyze links every span to its parent (the innermost enclosing span
// of the same request at a shallower layer; set-up steps hang off their
// boot's root) and, for the requests of one window, computes self times
// (duration minus the union of the children's clipped intervals) and
// sums them per layer.
func (t *tracer) analyze(phaseID int64) *traceReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := make(map[int64][]int)
	for i := range t.spans {
		sp := &t.spans[i]
		sp.Parent = -1
		sp.depth = layerDepth[sp.Layer]
		if sp.Layer == layerSetup && sp.Name != "setup" {
			sp.depth = 1
		}
		byReq[sp.Req] = append(byReq[sp.Req], i)
	}
	rep := &traceReport{selfNS: make(map[string]int64)}
	var selfSum int64
	for req, idxs := range byReq {
		sort.Slice(idxs, func(a, b int) bool {
			sa, sb := &t.spans[idxs[a]], &t.spans[idxs[b]]
			if sa.depth != sb.depth {
				return sa.depth < sb.depth
			}
			return sa.Start < sb.Start
		})
		root := -1
		children := make(map[int][]int)
		for k, i := range idxs {
			s := &t.spans[i]
			if s.depth == 0 {
				if root < 0 {
					root = i
				}
				continue
			}
			best := -1
			for _, j := range idxs[:k] {
				p := &t.spans[j]
				if p.depth >= s.depth || p.Start > s.Start || p.End < s.End {
					continue
				}
				if best < 0 || p.depth > t.spans[best].depth {
					best = j
				}
			}
			if best < 0 {
				best = root // escaped its parent: charged to the root, shows as excess
			}
			s.Parent = best
			if best >= 0 {
				children[best] = append(children[best], i)
			}
		}
		if root < 0 || req < 0 || req>>32 != phaseID {
			continue
		}
		rep.requests++
		rep.wallNS += t.spans[root].End - t.spans[root].Start
		for _, i := range idxs {
			s := &t.spans[i]
			if s.Parent < 0 && i != root {
				continue
			}
			self := (s.End - s.Start) - covered(s, children[i], t.spans)
			rep.selfNS[s.Layer] += self
			selfSum += self
		}
	}
	if rep.wallNS > 0 {
		d := selfSum - rep.wallNS
		if d < 0 {
			d = -d
		}
		rep.errFrac = float64(d) / float64(rep.wallNS)
	}
	return rep
}

// covered is the length of the union of the children's intervals
// clipped to the parent.
func covered(p *span, kids []int, spans []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	total += curB - curA
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
