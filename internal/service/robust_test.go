package service

// Robustness tests: admission control under burst, panic containment,
// crash-safe cache persistence across restarts, and the status
// mapping's edge cases (DESIGN.md §14).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/faults"
	"mixtime/internal/telemetry"
)

// newRobustServer builds a server with explicit overload/fault knobs.
func newRobustServer(t *testing.T, cfg Config, mutable bool) (*Server, *api.Client) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddDataset("physics-1", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	if cfg.Collector == nil {
		cfg.Collector = telemetry.New()
	}
	if mutable {
		if _, err := reg.MakeMutable("physics-1", cfg.Collector); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, api.NewClient(ts.URL)
}

// waitCounter polls a telemetry counter until it reaches want.
func waitCounter(t *testing.T, col *telemetry.Collector, c telemetry.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for col.Count(c) < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %v = %d, want >= %d", c, col.Count(c), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBurstShedsWith429 is the admission-control acceptance check: a
// burst far beyond pool+queue capacity gets at most capacity admitted
// and the overflow rejected fast with 429 + Retry-After, counted as
// service_shed and NOT as service_errors.
func TestBurstShedsWith429(t *testing.T) {
	inject, err := faults.Parse("latency=300ms")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	s, c := newRobustServer(t, Config{
		PoolSize:  1,
		MaxQueue:  1,
		Injector:  inject,
		Collector: col,
	}, false)

	const burst = 8 // 4x (pool + queue)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var okCount, shedCount int
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := tinyParams()
			p.Seed = uint64(i) // distinct fingerprints: no singleflight joins
			_, err := c.Query(context.Background(),
				api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: p})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				okCount++
			case api.IsShed(err):
				shedCount++
			default:
				t.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if okCount+shedCount != burst {
		t.Fatalf("ok=%d shed=%d, want them to cover all %d requests", okCount, shedCount, burst)
	}
	// Capacity is pool(1)+queue(1): at least burst-2 must have been
	// shed, and someone must have gotten through.
	if shedCount < burst-2 || okCount < 1 {
		t.Fatalf("ok=%d shed=%d under a %d burst with capacity 2", okCount, shedCount, burst)
	}
	if got := col.Count(telemetry.ServiceShed); got != int64(shedCount) {
		t.Fatalf("service_shed = %d, want %d", got, shedCount)
	}
	if got := col.Count(telemetry.ServiceErrors); got != 0 {
		t.Fatalf("service_errors = %d, want 0 (sheds are not errors)", got)
	}
	if s.queueDepth.Load() != 0 {
		t.Fatalf("queue depth = %d after the burst, want 0", s.queueDepth.Load())
	}
}

// TestShedResponseCarriesRetryAfter checks the raw 429 wire shape.
func TestShedResponseCarriesRetryAfter(t *testing.T) {
	inject, err := faults.Parse("latency=500ms")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	_, c := newRobustServer(t, Config{PoolSize: 1, MaxQueue: -1, Injector: inject, Collector: col}, false)

	// Occupy the only slot (queue disabled with MaxQueue<0), then
	// probe: the probe must shed immediately.
	go func() {
		p := tinyParams()
		p.Seed = 99
		c.Query(context.Background(), api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: p}) //nolint:errcheck
	}()
	waitCounter(t, col, telemetry.ServiceSolves, 1)

	body, _ := json.Marshal(api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()})
	hres, err := http.Post(c.BaseURL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", hres.StatusCode)
	}
	if hres.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var resp api.Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil || resp.Error == "" {
		t.Fatalf("429 body not a decodable error envelope: %v / %+v", err, resp)
	}
}

// TestQueueWaitShedsSlowBurst pins the second shed trigger: a queued
// solve that cannot get a slot within MaxQueueWait is shed rather
// than parked forever.
func TestQueueWaitShedsSlowBurst(t *testing.T) {
	inject, err := faults.Parse("latency=600ms")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	_, c := newRobustServer(t, Config{
		PoolSize:     1,
		MaxQueue:     4,
		MaxQueueWait: 30 * time.Millisecond,
		Injector:     inject,
		Collector:    col,
	}, false)

	go func() {
		p := tinyParams()
		p.Seed = 99
		c.Query(context.Background(), api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: p}) //nolint:errcheck
	}()
	waitCounter(t, col, telemetry.ServiceSolves, 1)

	p := tinyParams()
	p.Seed = 7
	t0 := time.Now()
	_, qerr := c.Query(context.Background(), api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: p})
	if !api.IsShed(qerr) {
		t.Fatalf("queued request err = %v, want a 429 shed", qerr)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("shed took %v — the queue wait did not bound it", elapsed)
	}
	if !strings.Contains(qerr.Error(), "no solve slot") {
		t.Fatalf("shed error %q does not name the queue wait", qerr)
	}
}

// TestPanicContainment is the panic-barrier acceptance check: an
// injected solve panic becomes a 500 envelope, is counted, is NOT
// cached, and the daemon keeps answering.
func TestPanicContainment(t *testing.T) {
	inject, err := faults.Parse("panic=1:1")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	_, c := newRobustServer(t, Config{Injector: inject, Collector: col}, false)
	ctx := context.Background()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	resp, err := c.Query(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("panicking solve: err = %v, want a 500", err)
	}
	if resp == nil || !strings.Contains(resp.Error, "panic") {
		t.Fatalf("500 envelope does not name the panic: %+v", resp)
	}
	if got := col.Count(telemetry.ServicePanics); got != 1 {
		t.Fatalf("service_panics = %d, want 1", got)
	}

	// The panic is not cached: the identical request re-solves (the
	// injector's cap is spent) and succeeds; the daemon survived.
	resp, err = c.Query(ctx, req)
	if err != nil {
		t.Fatalf("request after contained panic: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("second request was a cache hit — the panic outcome was cached")
	}
	if resp.SLEM == nil || resp.SLEM.Mu <= 0 {
		t.Fatalf("post-panic solve returned a mangled payload: %+v", resp.SLEM)
	}
	if got := col.Count(telemetry.ServiceSolves); got != 2 {
		t.Fatalf("service_solves = %d, want 2 (panic + retry)", got)
	}
}

// TestInjectedErrorIsTransient: an injected transient error surfaces
// as a 500 and the retrying client recovers on its own.
func TestInjectedErrorIsTransient(t *testing.T) {
	inject, err := faults.Parse("error=1:2")
	if err != nil {
		t.Fatal(err)
	}
	_, c := newRobustServer(t, Config{Injector: inject}, false)
	c.MaxRetries = 4
	c.BaseBackoff = time.Millisecond
	resp, err := c.Query(context.Background(),
		api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()})
	if err != nil {
		t.Fatalf("retrying client did not recover from injected errors: %v", err)
	}
	if resp.SLEM == nil {
		t.Fatalf("recovered response lacks a payload: %+v", resp)
	}
	if m := c.Metrics(); m.Retries < 2 {
		t.Fatalf("client retries = %d, want >= 2", m.Retries)
	}
}

// TestPersistSurvivesRestart is the crash-recovery acceptance check:
// a result solved before an abrupt stop is replayed byte-identically
// by a fresh daemon over the same -cache-dir, with exactly zero new
// solves.
func TestPersistSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	col1 := telemetry.New()
	_, c1 := newRobustServer(t, Config{CacheDir: dir, Collector: col1}, false)
	first, err := c1.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The write-through is asynchronous with the answer; wait for it
	// before "killing" the daemon.
	waitCounter(t, col1, telemetry.ServicePersistWrites, 1)

	// A fresh registry + server over the same dir is exactly what a
	// SIGKILL + restart produces: no graceful flush ran.
	col2 := telemetry.New()
	_, c2 := newRobustServer(t, Config{CacheDir: dir, Collector: col2}, false)
	if got := col2.Count(telemetry.ServiceCacheLoaded); got != 1 {
		t.Fatalf("service_cache_loaded = %d, want 1", got)
	}
	second, err := c2.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("restarted daemon missed the persisted result")
	}
	if got := col2.Count(telemetry.ServiceSolves); got != 0 {
		t.Fatalf("service_solves after restart = %d, want exactly 0", got)
	}

	// Byte-identical modulo the per-request envelope.
	a, b := *first, *second
	a.CacheHit, b.CacheHit = false, false
	a.ElapsedNS, b.ElapsedNS = 0, 0
	ab, _ := json.Marshal(&a)
	bb, _ := json.Marshal(&b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("replayed payload differs from the original:\n%s\nvs\n%s", ab, bb)
	}
}

// TestMutableEntriesDroppedOnReload pins the reload rule: mutation
// epochs restart at zero after a reboot, so persisted results against
// version-stamped hashes are unreplayable and must be discarded (both
// from the warm load and from disk).
func TestMutableEntriesDroppedOnReload(t *testing.T) {
	dir := t.TempDir()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	col1 := telemetry.New()
	_, c1 := newRobustServer(t, Config{CacheDir: dir, Collector: col1}, true)
	if _, err := c1.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, col1, telemetry.ServicePersistWrites, 1)

	col2 := telemetry.New()
	_, c2 := newRobustServer(t, Config{CacheDir: dir, Collector: col2}, true)
	if got := col2.Count(telemetry.ServiceCacheLoaded); got != 0 {
		t.Fatalf("service_cache_loaded = %d, want 0 (stamped entries must drop)", got)
	}
	resp, err := c2.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("restarted daemon replayed a mutable-graph entry from a previous life")
	}
	// load deletes what it refuses; only the freshly re-solved entry's
	// file may exist once its write-through lands.
	waitCounter(t, col2, telemetry.ServicePersistWrites, 1)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("cache dir holds %d files, want 1 (rejects deleted, re-solve persisted)", len(files))
	}
}

// TestTornPersistFileIsDiscarded: a half-written (crash-torn) cache
// file must be treated as a miss and cleaned up, never trusted.
func TestTornPersistFileIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte(`{"schema_version":1,"finge`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	newRobustServer(t, Config{CacheDir: dir, Collector: col}, false)
	if got := col.Count(telemetry.ServiceCacheLoaded); got != 0 {
		t.Fatalf("service_cache_loaded = %d, want 0", got)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("torn/temp files survived the load: %v", left)
	}
}

// TestClientGoneIsNotAnError pins the disconnect satellite: a
// requester vanishing mid-solve is logged and counted
// (service_client_gone), not inflated into service_errors or a 504.
func TestClientGoneIsNotAnError(t *testing.T) {
	inject, err := faults.Parse("latency=400ms")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	_, c := newRobustServer(t, Config{Injector: inject, Collector: col}, false)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Query(ctx, api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}); err == nil {
		t.Fatal("query survived its caller's death")
	}
	waitCounter(t, col, telemetry.ServiceClientGone, 1)
	if got := col.Count(telemetry.ServiceErrors); got != 0 {
		t.Fatalf("service_errors = %d, want 0 (a gone client is not a server error)", got)
	}
}

// TestReadEndpointsRejectNonGET pins the 405 satellite across the
// read-only surface.
func TestReadEndpointsRejectNonGET(t *testing.T) {
	_, c := newRobustServer(t, Config{}, false)
	for _, path := range []string{"/v1/graphs", "/healthz", "/stats"} {
		hres, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		if hres.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, hres.StatusCode)
		}
	}
	hres, err := http.Get(c.BaseURL + "/v1/mutate")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mutate = %d, want 405", hres.StatusCode)
	}
}

// TestDrainWaitsForWriteThroughs: a result's write-through runs after
// its requesters are released, so Drain must wait for it as well as
// for the requests — every result answered before Drain is on disk
// when Drain returns, which a graceful mixtimed shutdown relies on.
func TestDrainWaitsForWriteThroughs(t *testing.T) {
	// The write lands a fraction of a millisecond after the answer, so
	// a missing wait shows in roughly a third of the trials.
	const queries, trials = 8, 20
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		s, c := newRobustServer(t, Config{CacheDir: dir}, false)
		var wg sync.WaitGroup
		errs := make(chan error, queries)
		for i := 0; i < queries; i++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				p := tinyParams()
				p.Seed = seed
				_, err := c.Query(context.Background(), api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: p})
				errs <- err
			}(uint64(trial*queries + i + 1))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != queries {
			t.Fatalf("trial %d: %d of %d answered results on disk when Drain returned", trial, len(files), queries)
		}
	}
}
