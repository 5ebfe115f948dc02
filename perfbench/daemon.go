package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/graphio"
	"mixtime/internal/service"
	"mixtime/internal/telemetry"
)

// daemon is an in-process mixtimed: a service.Server behind a loopback
// net/http listener, and an api.Client with retries and hedging off
// and at most nproc connections.
type daemon struct {
	srv    *service.Server
	col    *telemetry.Collector
	hs     *http.Server
	served chan struct{}
	cancel context.CancelFunc
	client *api.Client
	tport  *http.Transport
}

// startDaemon builds the server over reg (the warm-load happens here
// when cacheDir is set) and starts serving it. The construction is
// recorded as a service.new span under setupSpan, tagged with role.
func startDaemon(e *env, reg *service.Registry, cacheDir string, setupSpan int64, role string) (*daemon, error) {
	ctx, cancel := context.WithCancel(context.Background())
	col := telemetry.New()
	t0 := time.Now()
	srv, err := service.New(ctx, reg, service.Config{PoolSize: e.nproc, CacheDir: cacheDir, Collector: col})
	if err != nil {
		cancel()
		return nil, err
	}
	e.tr.record(0, setupSpan, -1, "service.new", role, t0, time.Now())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		h = traceHandler(e.tr, h)
	}
	d := &daemon{srv: srv, col: col, hs: &http.Server{Handler: h}, served: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // always http.ErrServerClosed after stop
	}()
	d.tport = &http.Transport{MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc}
	var rt http.RoundTripper = d.tport
	if e.tr != nil {
		rt = tracingTransport{d.tport}
	}
	d.client = api.NewClient(ln.Addr().String())
	d.client.HTTPClient = &http.Client{Transport: rt, Timeout: 2 * time.Minute}
	return d, nil
}

// stop shuts the listener, drains the server and waits for the serving
// goroutine to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx) //nolint:errcheck // a timed-out shutdown still closes the listener
	<-d.served
	d.srv.Drain()
	d.cancel()
	d.tport.CloseIdleConnections()
}

// graphSpec is one Table-1 substitute a workload serves.
type graphSpec struct {
	name    string // registry name
	dataset string
	scale   float64
	mapped  bool // written as a MIXG snapshot and registered with LoadDirMapped
}

// buildRegistry generates the graphs (datasets.generate spans), writes
// and maps the snapshot ones (graphio.map), and registers the rest.
// The generation seed is fixed, not the workload seed: graphs are the
// served data set, requests are the workload's inputs.
func buildRegistry(e *env, specs []graphSpec, snapDir string, setupSpan int64) (*service.Registry, error) {
	reg := service.NewRegistry()
	gs := make([]*graph.Graph, len(specs))
	t0 := time.Now()
	for i, s := range specs {
		d, err := datasets.ByName(s.dataset)
		if err != nil {
			return nil, err
		}
		gs[i] = d.Generate(s.scale, 1)
	}
	e.tr.record(0, setupSpan, -1, "datasets.generate", "", t0, time.Now())

	t0 = time.Now()
	mapped := 0
	for i, s := range specs {
		if !s.mapped {
			continue
		}
		if err := graphio.SaveFile(filepath.Join(snapDir, s.name+".mixg"), gs[i]); err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", s.name, err)
		}
		mapped++
	}
	if mapped > 0 {
		n, err := reg.LoadDirMapped(snapDir)
		if err != nil {
			return nil, err
		}
		if n != mapped {
			return nil, fmt.Errorf("mapped %d snapshots, wrote %d", n, mapped)
		}
		e.tr.record(0, setupSpan, -1, "graphio.map", "", t0, time.Now())
	}
	for i, s := range specs {
		if s.mapped {
			continue
		}
		if _, err := reg.AddGraph(s.name, fmt.Sprintf("dataset:%s:%v", s.dataset, s.scale), gs[i]); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// counter reads one service counter off the daemon's collector.
func (d *daemon) counter(c telemetry.Counter) float64 { return float64(d.col.Count(c)) }

// serviceLayers fills the service.* per-layer counters and ratios.
func serviceLayers(o *outcome, d *daemon) {
	snap := d.col.Snapshot()
	get := func(c telemetry.Counter) float64 { return float64(snap.Get(c)) }
	o.layers["service.requests"] = get(telemetry.ServiceRequests)
	o.layers["service.cache_hits"] = get(telemetry.ServiceCacheHits)
	o.layers["service.cache_misses"] = get(telemetry.ServiceCacheMisses)
	o.layers["service.joins"] = get(telemetry.ServiceJoins)
	o.layers["service.solves"] = get(telemetry.ServiceSolves)
	o.layers["service.shed"] = get(telemetry.ServiceShed)
	o.layers["service.evictions"] = get(telemetry.ServiceEvictions)
	o.layers["service.persist_writes"] = get(telemetry.ServicePersistWrites)
	o.layers["service.cache_loaded"] = get(telemetry.ServiceCacheLoaded)
	o.layers["service.queue_depth_max"] = float64(snap.GetGauge(telemetry.ServiceQueueDepth))
	if req := get(telemetry.ServiceRequests); req > 0 {
		o.layers["service.hit_ratio"] = get(telemetry.ServiceCacheHits) / req
		o.layers["service.solves_per_query"] = get(telemetry.ServiceSolves) / req
	}
}

// setupLayers fills the set-up per-layer metrics from the setup spans.
func setupLayers(o *outcome, tr *tracer) {
	seconds := func(name string) float64 { return median(spanMS(tr.named(name))) / 1e3 }
	o.layers["datasets.generate_s"] = seconds("datasets.generate")
	o.layers["graphio.map_s"] = seconds("graphio.map")
	o.layers["service.warmup_s"] = seconds("service.warmup")
	var warm []float64
	for _, s := range tr.named("service.new") {
		if s.Tag == "warm-load" {
			warm = append(warm, s.ms())
		}
	}
	o.layers["service.warmload_ms"] = median(warm)
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 5

// repeatSetup sets up setupRuns times, closing all but the last
// set-up, and returns that one with the median set-up time.
func repeatSetup[S interface{ close() }](setup func() (S, time.Duration, error)) (S, float64, error) {
	var st S
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			st.close()
		}
		var d time.Duration
		var err error
		if st, d, err = setup(); err != nil {
			return st, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	return st, median(secs), nil
}

// reqRecord is what the load generator learned about one request.
type reqRecord struct {
	req  api.Request
	resp *api.Response
	ok   bool
}

// query sends one request, recording the loadgen.request and api.query
// spans on traced passes, and returns the answer and when it arrived.
func query(e *env, d *daemon, id int64, req api.Request, due time.Time) (*api.Response, time.Time, error) {
	ctx := context.Background()
	lid, qid := e.tr.newID(), e.tr.newID()
	if e.tr != nil {
		ctx = withSpanRef(ctx, id, qid)
	}
	q0 := time.Now()
	resp, err := d.client.Query(ctx, req)
	q1 := time.Now()
	e.tr.record(qid, lid, id, "api.query", req.Op, q0, q1)
	tag := "miss"
	if err != nil {
		tag = "fail"
	} else if resp.CacheHit {
		tag = "hit"
	}
	e.tr.record(lid, 0, id, "loadgen.request", tag, due, q1)
	return resp, q1, err
}

// latencyMetrics fills the latency percentiles from the samples; too
// few samples for a p99 fail the run.
func latencyMetrics(o *outcome, samples []sample) error {
	ms := latenciesMS(samples)
	tail, err := p99(ms)
	if err != nil {
		return err
	}
	o.e2e["latency_p50_ms"] = median(ms)
	o.e2e["latency_p99_ms"] = tail
	o.notef("latency samples %d (p99 has %d beyond it)", len(ms), countAbove(ms, tail))
	return nil
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}
