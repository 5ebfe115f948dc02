package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// tinyParams is a configuration small enough for unit tests yet large
// enough to exercise every solver.
func tinyParams() api.Params {
	return api.Params{
		Scale:       0.0002,
		Seed:        1,
		Sources:     25,
		MaxWalk:     120,
		SpectralTol: 1e-6,
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, *api.Client) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddDataset("physics-1", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, reg, Config{Collector: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := api.NewClient(ts.URL)
	return s, ts, c
}

// TestQueryCacheAndStats drives the acceptance check end to end: the
// same query twice, the second served from cache with an identical
// payload and no additional solve in the /stats counters.
func TestQueryCacheAndStats(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	first, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported cache_hit")
	}
	if first.SLEM == nil || first.SLEM.Mu <= 0 || first.SLEM.Mu >= 1 {
		t.Fatalf("implausible SLEM payload: %+v", first.SLEM)
	}
	second, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Fatalf("fingerprints differ: %q vs %q", first.Fingerprint, second.Fingerprint)
	}

	// Byte-identical modulo the per-request envelope: normalize the
	// fields that legitimately differ and compare the rest.
	a, b := *first, *second
	a.CacheHit, b.CacheHit = false, false
	a.ElapsedNS, b.ElapsedNS = 0, 0
	ab, _ := json.Marshal(&a)
	bb, _ := json.Marshal(&b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("cache hit payload differs from the miss:\n%s\nvs\n%s", ab, bb)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	counters := stats.Telemetry.Counters
	if got := counters["service_solves"]; got != 1 {
		t.Fatalf("service_solves = %d, want 1 (repeat must not re-solve)", got)
	}
	if got := counters["service_cache_hits"]; got != 1 {
		t.Fatalf("service_cache_hits = %d, want 1", got)
	}
	if got := counters["service_requests"]; got != 2 {
		t.Fatalf("service_requests = %d, want 2", got)
	}
	if stats.Graphs != 1 || stats.CacheEntries != 1 {
		t.Fatalf("stats occupancy = %d graphs / %d entries, want 1/1",
			stats.Graphs, stats.CacheEntries)
	}
}

// TestWorkersDoNotSplitTheCache pins the fingerprint exclusion:
// requests differing only in byte-identity knobs share one solve.
func TestWorkersDoNotSplitTheCache(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}
	if _, err := c.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	req.Params.Workers = 1
	req.Params.BlockSize = 16
	resp, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("workers/block_size variation split the cache")
	}
}

// TestEveryOp smoke-runs each graph op once over HTTP.
func TestEveryOp(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	for _, op := range []string{api.OpSLEM, api.OpBounds, api.OpCDF, api.OpAdmission, api.OpDistMix} {
		p := tinyParams()
		if op == api.OpCDF {
			// physics-1 mixes slowly (that is the paper's point); give
			// the traces room to cross ε.
			p.MaxWalk = 2000
			p.Eps = 0.25
		}
		if op == api.OpDistMix {
			// Same slow mixer: a matching round budget, fewer sources
			// and walkers to keep the walker flood test-sized.
			p.Eps = 0.25
			p.Sources = 5
			p.DistWalks = 16
			p.DistRounds = 2000
		}
		resp, err := c.Query(ctx, api.Request{Op: op, Graph: "physics-1", Params: p})
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		switch op {
		case api.OpSLEM:
			if resp.SLEM == nil {
				t.Fatalf("%s: missing payload", op)
			}
		case api.OpBounds:
			if resp.Bounds == nil || len(resp.Bounds.Rows) != len(api.DefaultEpsList()) {
				t.Fatalf("%s: bad payload %+v", op, resp.Bounds)
			}
		case api.OpCDF:
			if resp.CDF == nil || len(resp.CDF.Points) == 0 || resp.CDF.Sources != 25 {
				t.Fatalf("%s: bad payload %+v", op, resp.CDF)
			}
		case api.OpAdmission:
			if resp.Admission == nil || resp.Admission.Suspects == 0 {
				t.Fatalf("%s: bad payload %+v", op, resp.Admission)
			}
		case api.OpDistMix:
			if resp.DistMix == nil || !resp.DistMix.Complete || resp.DistMix.Tau <= 0 {
				t.Fatalf("%s: bad payload %+v", op, resp.DistMix)
			}
			if resp.DistMix.OffShardMessages == 0 {
				t.Fatalf("%s: no off-shard traffic across %d shards",
					op, resp.DistMix.Shards)
			}
		}
	}
}

// TestDistShardsDoNotSplitTheCache pins the PR 7 fingerprint
// exclusion end to end: the distmix estimate is shard-count
// invariant, so requests differing only in dist_shards must share
// one cached solve.
func TestDistShardsDoNotSplitTheCache(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	p := tinyParams()
	p.Eps = 0.25
	p.Sources = 3
	p.DistWalks = 8
	p.DistRounds = 2000
	req := api.Request{Op: api.OpDistMix, Graph: "physics-1", Params: p}
	first, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Params.DistShards = 32
	resp, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("dist_shards variation split the cache")
	}
	if resp.DistMix.Tau != first.DistMix.Tau {
		t.Fatalf("cached τ %d differs from solve τ %d", resp.DistMix.Tau, first.DistMix.Tau)
	}
}

// TestExperimentMatchesPaperfigs is the schema-unification acceptance
// check: the daemon's OpExperiment response carries byte-for-byte the
// JSON document `paperfigs -json` writes for the same experiment and
// configuration.
func TestExperimentMatchesPaperfigs(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	p := tinyParams()

	resp, err := c.Query(ctx, api.Request{Op: api.OpExperiment, Experiment: "whanau", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Experiment != "X3" {
		t.Fatalf("legacy name not canonicalized: experiment = %q, want X3", resp.Experiment)
	}

	// What cmd/paperfigs -json writes: the registered experiment run
	// through the same runner with the same bridged config.
	r := &runner.Runner{Jobs: 1}
	report, err := r.Run(ctx, runner.ConfigFromParams(p), "X3")
	if err != nil {
		t.Fatal(err)
	}
	exp := report.Experiments[0]
	if exp.Err != nil {
		t.Fatal(exp.Err)
	}
	var buf bytes.Buffer
	if err := exp.Result.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The envelope encoder re-indents the embedded document on the
	// wire, so compare the whitespace-free forms: same fields, same
	// values, same order.
	var daemon, artifact bytes.Buffer
	if err := json.Compact(&daemon, resp.Document); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&artifact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(daemon.Bytes(), artifact.Bytes()) {
		t.Fatalf("daemon document != paperfigs -json artifact:\n--- daemon ---\n%s\n--- paperfigs ---\n%s",
			daemon.Bytes(), artifact.Bytes())
	}
}

// TestRequestValidation checks the error surface: status codes and
// decodable error envelopes.
func TestRequestValidation(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	cases := []struct {
		name   string
		req    api.Request
		status string
	}{
		{"missing op", api.Request{Graph: "physics-1"}, "400"},
		{"unknown op", api.Request{Op: "eigensmash", Graph: "physics-1"}, "400"},
		{"unknown graph", api.Request{Op: api.OpSLEM, Graph: "orkut-prime"}, "404"},
		{"unknown experiment", api.Request{Op: api.OpExperiment, Experiment: "F99"}, "404"},
		{"bad schema version", api.Request{SchemaVersion: 99, Op: api.OpSLEM, Graph: "physics-1"}, "400"},
	}
	for _, tc := range cases {
		resp, err := c.Query(ctx, tc.req)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.status) {
			t.Fatalf("%s: err = %v, want status %s", tc.name, err, tc.status)
		}
		if resp == nil || resp.Error == "" {
			t.Fatalf("%s: error body not decodable: %+v", tc.name, resp)
		}
	}

	hres, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d, want 405", hres.StatusCode)
	}
}

// TestGraphsEndpoint checks the registry listing.
func TestGraphsEndpoint(t *testing.T) {
	_, _, c := newTestServer(t)
	gs, err := c.Graphs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(gs.Graphs) != 1 || gs.Graphs[0].Name != "physics-1" {
		t.Fatalf("graphs = %+v, want exactly physics-1", gs.Graphs)
	}
	g := gs.Graphs[0]
	if g.Hash == "" || g.Nodes < 2 || g.Edges < 1 || !strings.HasPrefix(g.Origin, "dataset:") {
		t.Fatalf("implausible listing entry: %+v", g)
	}
}

// TestDrainRejectsNewRequests checks graceful shutdown semantics:
// after Drain, health flips to 503 and queries are rejected.
func TestDrainRejectsNewRequests(t *testing.T) {
	s, _, c := newTestServer(t)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		s.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned with no requests in flight")
	}
	if err := c.Healthz(ctx); err == nil {
		t.Fatal("healthz still 200 while draining")
	}
	if _, err := c.Query(ctx, api.Request{Op: api.OpSLEM, Graph: "physics-1"}); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("query while draining: err = %v, want 503", err)
	}
}

// TestOversizedBodiesRejected: a query or mutation body past its cap
// is answered 413 with the error envelope, and the daemon goes on
// answering ordinary queries.
func TestOversizedBodiesRejected(t *testing.T) {
	_, ts, c := newTestServer(t)
	for _, tc := range []struct {
		path  string
		limit int
	}{{"/v1/query", maxQueryBody}, {"/v1/mutate", maxMutateBody}} {
		body := `{"graph":"` + strings.Repeat("x", tc.limit) + `"}`
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var env struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil ||
			!strings.Contains(env.Error, "too large") {
			t.Fatalf("%s: status %d, envelope %+v (%v), want 413 naming the limit",
				tc.path, resp.StatusCode, env, err)
		}
	}
	resp, err := c.Query(context.Background(), api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()})
	if err != nil || resp.SLEM == nil {
		t.Fatalf("query after oversized bodies: %+v, %v", resp, err)
	}
}
