// Package service implements the mixtimed daemon behind cmd/mixtimed:
// a graph registry (MIXG snapshots plus Table-1 synthetic
// substitutes), a bounded worker pool running the mixing-time query
// ops (SLEM, Sinclair bounds, per-source CDFs, SybilLimit admission,
// registered paper experiments), and a fingerprint-keyed result cache
// with singleflight dedup in front of it.
//
// The wire contract lives in internal/api — this package only binds
// those types to graphs, solvers and HTTP. Queries are addressed by
// the sha256 fingerprint of (graph content identity,
// output-determining knobs): identical queries share one solve and
// replay from memory afterwards, knobs that cannot change output
// (workers, block size) are excluded, and a solve belongs to the
// server lifecycle rather than to whichever request started it, so a
// cancelled waiter never poisons the shared result.
//
// The serving plane is overload-hardened (DESIGN.md §14): a bounded
// wait-queue in front of the solve pool sheds overflow with 429 +
// Retry-After instead of queueing goroutines without bound, every
// solve runs under a recover barrier so a poisoned query costs one
// 500 envelope rather than the process, and completed results can be
// written through to a crash-safe on-disk store that warm-loads at
// the next startup.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/evolve"
	"mixtime/internal/faults"
	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// PoolSize bounds concurrent solves (0 = GOMAXPROCS). Cache hits
	// and singleflight joins never consume a slot — only actual work
	// queues here.
	PoolSize int
	// MaxQueue bounds how many solves may wait for a pool slot at
	// once; overflow is shed immediately with 429 + Retry-After
	// (0 = 8×pool, negative = no queue: shed whenever the pool is
	// busy).
	MaxQueue int
	// MaxQueueWait caps how long a queued solve waits for a pool slot
	// before being shed with 429 (0 = 1s).
	MaxQueueWait time.Duration
	// CacheMax bounds the completed-result cache; the oldest entries
	// are evicted first (0 = a generous default).
	CacheMax int
	// CacheDir, when set, persists completed results to disk
	// (write-through, temp+rename) and warm-loads them at startup, so
	// cached answers survive a crash or restart.
	CacheDir string
	// SolveTimeout caps any single solve regardless of the requester's
	// deadline (0 = none).
	SolveTimeout time.Duration
	// Injector, when non-nil, arms deterministic fault injection on
	// the solve path (mixtimed -inject) — the chaos switch the
	// containment paths are smoke-tested through.
	Injector *faults.Injector
	// Collector receives the service_* counters and the kernel
	// telemetry from every solve (nil = a private collector).
	Collector *telemetry.Collector
}

// errOverload marks an admission-control rejection: the request was
// shed, not failed — the client should retry after a beat.
var errOverload = errors.New("service: overloaded")

// retryAfter is the hint written on every 429/503 response. Shed
// waves drain within about a second at any realistic solve latency,
// so a finer-grained hint (the header only speaks whole seconds)
// buys nothing.
const retryAfter = "1"

// Request-body caps, far above any legitimate query (a few hundred
// bytes) or mutation batch, so one client cannot make the daemon
// buffer an unbounded eps_list or insert array before Validate runs.
// A body past its cap is answered 413.
const (
	maxQueryBody  = 1 << 20
	maxMutateBody = 16 << 20
)

// bodyStatus is the status for a request-body decode error: 413 when
// the body passed its cap, 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Server answers mixing-time queries over a fixed graph registry. It
// is constructed once (New), serves via Handler, and is torn down
// with Drain: new requests are rejected while in-flight ones finish.
type Server struct {
	reg       *Registry
	pool      *runner.Pool
	cache     *cache
	col       *telemetry.Collector
	inject    *faults.Injector
	queue     chan struct{}
	queueWait time.Duration
	start     time.Time

	mu         sync.Mutex
	draining   bool
	inflight   sync.WaitGroup
	active     atomic.Int64
	queueDepth atomic.Int64
}

// New builds a Server over the registry. ctx is the server lifecycle:
// when it dies, in-flight solves are cancelled (a solve belongs to
// the daemon, not to the request that happened to start it). The
// error path is the persistent cache: an unusable CacheDir refuses to
// start rather than silently serving memory-only.
func New(ctx context.Context, reg *Registry, cfg Config) (*Server, error) {
	col := cfg.Collector
	if col == nil {
		col = telemetry.New()
	}
	pool := runner.NewPool(cfg.PoolSize)
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = 8 * pool.Size()
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	queueWait := cfg.MaxQueueWait
	if queueWait <= 0 {
		queueWait = time.Second
	}
	s := &Server{
		reg:       reg,
		pool:      pool,
		cache:     newCache(ctx, cfg.SolveTimeout, cfg.CacheMax, col),
		col:       col,
		inject:    cfg.Injector,
		queue:     make(chan struct{}, maxQueue),
		queueWait: queueWait,
		start:     time.Now(),
	}
	if cfg.CacheDir != "" {
		store, err := openDiskStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cache.attachStore(store)
		// Reload rule: keep graph-independent results (experiments) and
		// results whose graph is still registered, immutable, and
		// content-identical. Version-stamped mutable-graph entries are
		// always dropped — mutation epochs restart at zero after a
		// reboot, so a stamp from the previous life could alias a
		// different edge set.
		n, err := s.cache.warmLoad(func(tag, hash string) bool {
			if tag == "" {
				return true
			}
			e, ok := reg.Get(tag)
			return ok && e.Mutable() == nil && e.Hash == hash
		})
		if err != nil {
			return nil, err
		}
		col.Add(telemetry.ServiceCacheLoaded, int64(n))
	}
	return s, nil
}

// Collector exposes the server's telemetry for tests and /stats.
func (s *Server) Collector() *telemetry.Collector { return s.col }

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/query   — the unified query endpoint (api.Request/Response)
//	GET  /v1/graphs  — the registry listing
//	GET  /healthz    — 200 while serving, 503 while draining
//	GET  /stats      — counters, pool and cache occupancy
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	mux.HandleFunc("/v1/graphs", s.handleGraphs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// Drain stops admission and waits for in-flight requests and for the
// write-throughs of every result they were answered with: the
// graceful half of shutdown, after which a -cache-dir holds each
// answered result. Solves that every requester abandoned are not
// waited for. The HTTP listener is closed by the caller
// (http.Server.Shutdown); Drain makes the rejection explicit for
// requests racing the close.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
	s.cache.flush()
}

// enter admits one request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// acquireSolveSlot is the admission gate in front of the solve pool:
// a free slot is taken immediately; otherwise the solve enters the
// bounded wait-queue and is shed (errOverload) when the queue is full
// or the queue wait expires. Shed solves fail fast — the whole point
// is that a burst beyond pool+queue capacity costs the daemon a 429
// write, not a parked goroutine.
func (s *Server) acquireSolveSlot(sctx context.Context) (release func(), err error) {
	if s.pool.TryAcquire() {
		return s.pool.Release, nil
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: wait queue full (%d waiting)", errOverload, cap(s.queue))
	}
	s.col.ObserveMax(telemetry.ServiceQueueDepth, s.queueDepth.Add(1))
	defer func() {
		s.queueDepth.Add(-1)
		<-s.queue
	}()
	wctx, cancel := context.WithTimeout(sctx, s.queueWait)
	defer cancel()
	if err := s.pool.Acquire(wctx); err != nil {
		if wctx.Err() != nil && sctx.Err() == nil {
			return nil, fmt.Errorf("%w: no solve slot within %v", errOverload, s.queueWait)
		}
		return nil, err
	}
	return s.pool.Release, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "", errors.New("service: POST only"))
		return
	}
	if !s.enter() {
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusServiceUnavailable, "", errors.New("service: draining"))
		return
	}
	defer s.inflight.Done()
	s.col.Add(telemetry.ServiceRequests, 1)
	s.col.ObserveMax(telemetry.MaxInflightRequests, s.active.Add(1))
	defer s.active.Add(-1)

	started := time.Now()
	var req api.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		s.fail(w, bodyStatus(err), req, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, req, err)
		return
	}

	// Resolve the target before fingerprinting so aliases collapse:
	// the graph name becomes its content hash, a legacy experiment
	// name becomes its canonical ID. Mutable graphs resolve through
	// View() to a frozen per-epoch snapshot, so the fingerprint, the
	// cache entry and the solve all see exactly one version even if
	// mutations land mid-request.
	var entry *Entry
	var graphHash, tag string
	if req.Op == api.OpExperiment {
		id, err := resolveExperiment(req.Experiment)
		if err != nil {
			s.fail(w, http.StatusNotFound, req, err)
			return
		}
		req.Experiment = id
	} else {
		e, ok := s.reg.Get(req.Graph)
		if !ok {
			s.fail(w, http.StatusNotFound, req, fmt.Errorf("service: unknown graph %q", req.Graph))
			return
		}
		entry = e.View()
		graphHash, tag = entry.Hash, entry.Name
	}
	fp := api.Fingerprint(req, graphHash)

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	resp, outcome, err := s.cache.do(ctx, fp, tag, graphHash, func(sctx context.Context) (resp *api.Response, err error) {
		// The pool slot is acquired inside the solve so hits and joins
		// bypass the queue entirely; queueing is charged to the solve's
		// context, not to any single waiter.
		release, err := s.acquireSolveSlot(sctx)
		if err != nil {
			return nil, err
		}
		defer release()
		// Recover barrier: a panic anywhere below — a poisoned graph, a
		// solver bug, an injected fault — becomes an ordinary error on
		// this one entry. The cache never stores errors, so the panic is
		// not cached either: the next identical request re-solves.
		defer func() {
			if v := recover(); v != nil {
				s.col.Add(telemetry.ServicePanics, 1)
				resp = nil
				err = &runner.PanicError{Experiment: req.Op, Value: v, Stack: debug.Stack()}
				log.Printf("service: contained solve panic (op=%s fp=%.12s): %v", req.Op, fp, v)
			}
		}()
		if err := s.inject.Inject(sctx); err != nil {
			return nil, err
		}
		return solve(sctx, req, entry, s.col)
	})
	if err != nil {
		s.failQuery(w, r, req, err)
		return
	}

	// The cached *Response is shared between waiters; copy the value
	// before stamping the per-request envelope.
	out := *resp
	out.Fingerprint = fp
	out.CacheHit = outcome == outcomeHit
	out.ElapsedNS = time.Since(started).Nanoseconds()
	writeJSON(w, http.StatusOK, &out)
}

// failQuery maps a solve failure to its status and envelope:
//
//   - client gone: no envelope at all — there is nobody to answer, so
//     the disconnect is logged and counted (service_client_gone), never
//     inflated into service_errors
//   - shed (errOverload): 429 + Retry-After, counted as service_shed
//   - contained panic: 500 envelope, the panic value as the error
//   - solve deadline: 504
//   - solve cancelled by the server lifecycle (shutdown): 503 + Retry-After
//   - anything else: 500
func (s *Server) failQuery(w http.ResponseWriter, r *http.Request, req api.Request, err error) {
	var pe *runner.PanicError
	switch {
	case r.Context().Err() != nil:
		s.col.Add(telemetry.ServiceClientGone, 1)
		log.Printf("service: client gone mid-query (op=%s): %v", req.Op, err)
	case errors.Is(err, errOverload):
		s.col.Add(telemetry.ServiceShed, 1)
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, req.Op, err)
	case errors.As(err, &pe):
		s.fail(w, http.StatusInternalServerError, req, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, req, err)
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", retryAfter)
		s.fail(w, http.StatusServiceUnavailable, req,
			fmt.Errorf("service: solve cancelled by shutdown: %w", err))
	default:
		s.fail(w, http.StatusInternalServerError, req, err)
	}
}

// handleMutate applies one mutation batch to a registered mutable
// graph: POST /v1/mutate with an api.MutateRequest. On success the
// graph's version bumps (exactly once per batch — evolve's contract),
// every cached result for the graph is evicted, and the response
// carries the new version-stamped hash future fingerprints will use.
// Static registry entries answer 409: mutability is a registration
// decision (mixtimed -mutable), not a request-time one.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.mutateFail(w, http.StatusMethodNotAllowed, "", errors.New("service: POST only"))
		return
	}
	if !s.enter() {
		w.Header().Set("Retry-After", retryAfter)
		s.mutateFail(w, http.StatusServiceUnavailable, "", errors.New("service: draining"))
		return
	}
	defer s.inflight.Done()
	started := time.Now()

	var req api.MutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody)).Decode(&req); err != nil {
		s.mutateFail(w, bodyStatus(err), req.Graph, fmt.Errorf("service: bad mutate body: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		s.mutateFail(w, http.StatusBadRequest, req.Graph, err)
		return
	}
	e, ok := s.reg.Get(req.Graph)
	if !ok {
		s.mutateFail(w, http.StatusNotFound, req.Graph, fmt.Errorf("service: unknown graph %q", req.Graph))
		return
	}
	mut := e.Mutable()
	if mut == nil {
		s.mutateFail(w, http.StatusConflict, req.Graph,
			fmt.Errorf("service: graph %q is not mutable (register it with mixtimed -mutable)", req.Graph))
		return
	}

	var batch evolve.Batch
	for _, es := range req.Insert {
		batch.Insert = append(batch.Insert, graph.Edge{U: graph.NodeID(es.U), V: graph.NodeID(es.V)})
	}
	for _, es := range req.Delete {
		batch.Delete = append(batch.Delete, graph.Edge{U: graph.NodeID(es.U), V: graph.NodeID(es.V)})
	}
	if req.Grow > 0 {
		g, ver := mut.Snapshot()
		seed := req.Seed
		if seed == 0 {
			seed = uint64(ver) + 1
		}
		rng := rand.New(rand.NewPCG(seed, 0x6709))
		batch.Insert = append(batch.Insert, evolve.GrowRandom(g, req.Grow, rng).Insert...)
	}

	res, err := mut.Apply(batch)
	if err != nil {
		s.mutateFail(w, http.StatusBadRequest, req.Graph, err)
		return
	}
	evicted := s.cache.evictTag(e.Name)
	s.col.Add(telemetry.ServiceMutations, 1)
	writeJSON(w, http.StatusOK, &api.MutateResponse{
		SchemaVersion: api.SchemaVersion,
		Graph:         e.Name,
		Version:       uint64(res.Version),
		Inserted:      res.Inserted,
		Deleted:       res.Deleted,
		Nodes:         res.Nodes,
		Edges:         res.Edges,
		Hash:          e.View().Hash,
		Evicted:       evicted,
		ElapsedNS:     time.Since(started).Nanoseconds(),
	})
}

// mutateFail writes a mutation error envelope and counts it.
func (s *Server) mutateFail(w http.ResponseWriter, status int, name string, err error) {
	s.col.Add(telemetry.ServiceErrors, 1)
	writeJSON(w, status, &api.MutateResponse{
		SchemaVersion: api.SchemaVersion,
		Graph:         name,
		Error:         err.Error(),
	})
}

// fail writes an error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, req api.Request, err error) {
	s.col.Add(telemetry.ServiceErrors, 1)
	httpError(w, status, req.Op, err)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "", errors.New("service: GET only"))
		return
	}
	writeJSON(w, http.StatusOK, api.GraphsResponse{
		SchemaVersion: api.SchemaVersion,
		Graphs:        s.reg.List(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "", errors.New("service: GET only"))
		return
	}
	writeJSON(w, http.StatusOK, api.StatsResponse{
		SchemaVersion: api.SchemaVersion,
		UptimeNS:      time.Since(s.start).Nanoseconds(),
		Pool:          s.pool.Size(),
		Graphs:        s.reg.Len(),
		CacheEntries:  s.cache.len(),
		QueueDepth:    int(s.queueDepth.Load()),
		Telemetry:     s.col.Snapshot(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone if this fails
}

func httpError(w http.ResponseWriter, status int, op string, err error) {
	writeJSON(w, status, api.Response{
		SchemaVersion: api.SchemaVersion,
		Op:            op,
		Error:         err.Error(),
	})
}
