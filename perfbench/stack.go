package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pde/internal/cluster"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
	"pde/internal/scheme"
	"pde/internal/server"
	"pde/internal/wire"
)

const shardName = "bench"

// buildTimes are one daemon's build steps, timed from the benchmark's
// side of each public call.
type buildTimes struct {
	graph, run, newSrv time.Duration
}

// daemon is one in-process pde-serve: the server, its loopback HTTP
// listener and, optionally, its PDE2 listener.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	ws    *wire.Server
	wt    *wireTrace
	g     *graph.Graph
	res   *core.Result
	fp    uint64
	began time.Time
	times buildTimes
}

// serveHTTP starts h on a fresh loopback listener.
func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// bootDaemon runs the daemon's whole build — graph, core.Run, then
// server.NewWithPrebuilt (oracle compile, stretch probes, fingerprint) —
// and starts its listeners. wireLanes > 0 also starts a PDE2 listener.
// With a tracer, the HTTP handler and wire backend are wrapped; the
// wrappers record only while the tracer is switched on.
func bootDaemon(sp scheme.Spec, tr *tracer, wireLanes int) (*daemon, error) {
	t0 := time.Now()
	d := &daemon{began: t0}
	g, err := sp.BuildGraph()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := core.Run(g, sp.Params(g.N()), congest.Config{Parallel: true, Workers: sp.BuildWorkers})
	if err != nil {
		return nil, fmt.Errorf("core.Run: %w", err)
	}
	t2 := time.Now()
	srv, err := server.NewWithPrebuilt(server.Config{}, server.Prebuilt{
		Name: shardName, Spec: sp, G: g, Res: res, BuildNS: t2.Sub(t1).Nanoseconds(),
	})
	if err != nil {
		return nil, fmt.Errorf("server.NewWithPrebuilt: %w", err)
	}
	t3 := time.Now()
	d.srv, d.g, d.res = srv, g, res
	d.times = buildTimes{graph: t1.Sub(t0), run: t2.Sub(t1), newSrv: t3.Sub(t2)}
	fps, _ := srv.Fingerprint(shardName)
	if d.fp, err = strconv.ParseUint(fps, 16, 64); err != nil {
		return nil, err
	}

	var h http.Handler = srv
	if tr != nil {
		h = tr.middleware(layerServer, srv)
	}
	if d.hs, d.url, err = serveHTTP(h); err != nil {
		srv.Close()
		return nil, err
	}
	if wireLanes > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		var be wire.Backend = srv
		if tr != nil {
			d.wt = newWireTrace(srv, tr, wireLanes)
			be = d.wt
		}
		d.ws = wire.Serve(ln, be, wire.Config{})
		srv.SetWireAddr(d.ws.Addr())
	}
	return d, nil
}

func (d *daemon) close() {
	if d.ws != nil {
		d.ws.Close()
	}
	if d.hs != nil {
		d.hs.Close()
	}
	d.srv.Close()
}

// coordinator is the in-process pde-cluster front end.
type coordinator struct {
	co  *cluster.Coordinator
	hs  *http.Server
	url string
}

func bootCoordinator(daemons []*daemon, tr *tracer) (*coordinator, error) {
	urls := make([]string, len(daemons))
	for i, d := range daemons {
		urls[i] = d.url
	}
	co, err := cluster.New(cluster.Config{Daemons: urls})
	if err != nil {
		return nil, err
	}
	var h http.Handler = co
	if tr != nil {
		h = tr.middleware(layerCluster, co)
	}
	hs, u, err := serveHTTP(h)
	if err != nil {
		co.Close()
		return nil, err
	}
	return &coordinator{co: co, hs: hs, url: u}, nil
}

func (c *coordinator) close() {
	c.hs.Close()
	c.co.Close()
}

// bootDaemons builds n replicas concurrently, as separate processes
// would, and fails if any build fails.
func bootDaemons(sp scheme.Spec, tr *tracer, n int) ([]*daemon, error) {
	ds := make([]*daemon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i], errs[i] = bootDaemon(sp, tr, 0)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, d := range ds {
			if d != nil {
				d.close()
			}
		}
		return nil, err
	}
	return ds, nil
}

// httpClient returns a client capped at conns connections to one host.
// With a tracer it stamps each request's id onto the URL.
func httpClient(conns int, traced bool) *http.Client {
	tr := server.DefaultTransport()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	var rt http.RoundTripper = tr
	if traced {
		rt = ridTransport{base: tr}
	}
	return &http.Client{Transport: rt}
}

// --- reference generations and answer checking ---------------------------

// generation is one table generation as the benchmark computes it
// in-process, independently of the daemons.
type generation struct {
	fp  uint64
	g   *graph.Graph
	res *core.Result
	o   *oracle.Oracle
	rtr *core.Router
}

func parseFP(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

// firstEstimate answers one estimate through base: the end of set-up.
func firstEstimate(ctx context.Context, base string, hc *http.Client) error {
	cl := &server.Client{BaseURL: base, Shard: shardName, HTTP: hc}
	_, _, err := cl.Estimate(ctx, []oracle.Query{{V: 0, S: 0}}, false)
	return err
}
