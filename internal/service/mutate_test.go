package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mixtime/internal/api"
	"mixtime/internal/graphio"
	"mixtime/internal/telemetry"
)

// newMutableServer is newTestServer with the served graph registered
// mutable; it returns the collector it hands the server.
func newMutableServer(t *testing.T) (*telemetry.Collector, *api.Client) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddDataset("physics-1", 0.002, 1); err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	if _, err := reg.MakeMutable("physics-1", col); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, reg, Config{Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return col, api.NewClient(ts.URL)
}

// TestMutateEvictsCache pins the acceptance sequence end to end: a
// query misses then hits, a mutation bumps the version and evicts the
// cached result, and the repeated query misses again under a new
// version-stamped fingerprint — with exactly one additional solve.
func TestMutateEvictsCache(t *testing.T) {
	col, c := newMutableServer(t)
	ctx := context.Background()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	first, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first query reported cache_hit")
	}
	hit, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Fingerprint != first.Fingerprint {
		t.Fatalf("pre-mutation repeat: hit=%v fp=%q want hit of %q",
			hit.CacheHit, hit.Fingerprint, first.Fingerprint)
	}
	solvesBefore := col.Count(telemetry.ServiceSolves)

	mres, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1", Grow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Version != 1 {
		t.Fatalf("version after first mutation = %d, want 1", mres.Version)
	}
	if mres.Inserted == 0 {
		t.Fatal("grow mutation inserted nothing")
	}
	if mres.Evicted != 1 {
		t.Fatalf("mutation evicted %d cache entries, want 1", mres.Evicted)
	}
	if !strings.HasSuffix(mres.Hash, "@v1") {
		t.Fatalf("post-mutation hash %q lacks the version stamp", mres.Hash)
	}

	after, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-mutation query served a stale cached result")
	}
	if after.Fingerprint == first.Fingerprint {
		t.Fatal("fingerprint did not change across the mutation")
	}
	if got := col.Count(telemetry.ServiceSolves) - solvesBefore; got != 1 {
		t.Fatalf("post-mutation repeat cost %d solves, want exactly 1", got)
	}
	if got := col.Count(telemetry.ServiceMutations); got != 1 {
		t.Fatalf("service_mutations = %d, want 1", got)
	}
	if got := col.Count(telemetry.ServiceEvictions); got != 1 {
		t.Fatalf("service_evictions = %d, want 1", got)
	}

	// And the new fingerprint is cacheable in its own right.
	again, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Fingerprint != after.Fingerprint {
		t.Fatalf("post-mutation repeat: hit=%v fp=%q want hit of %q",
			again.CacheHit, again.Fingerprint, after.Fingerprint)
	}
}

// TestMutateInsertDelete exercises explicit edge batches over the
// wire, including the growth of the node range.
func TestMutateInsertDelete(t *testing.T) {
	_, c := newMutableServer(t)
	ctx := context.Background()

	gs, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := gs.Graphs[0].Nodes

	// Attach a brand-new node by edge insertion.
	mres, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1",
		Insert: []api.EdgeSpec{{U: 0, V: int64(n)}}})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Inserted != 1 || mres.Nodes != n+1 {
		t.Fatalf("insert grew to %d nodes (%d inserted), want %d nodes, 1 inserted",
			mres.Nodes, mres.Inserted, n+1)
	}
	// Delete it again: the node range stays, the edge goes.
	mres, err = c.Mutate(ctx, api.MutateRequest{Graph: "physics-1",
		Delete: []api.EdgeSpec{{U: 0, V: int64(n)}}})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Deleted != 1 || mres.Version != 2 {
		t.Fatalf("delete: %+v, want 1 deleted at version 2", mres)
	}
}

// TestMutateCapsInsertedNodes: an insert naming a node at or past
// graphio.MaxLoadNodes would size the next epoch's CSR from untrusted
// input, so it is refused with 400 and the version stays put; one
// just below the cap applies.
func TestMutateCapsInsertedNodes(t *testing.T) {
	const limit = 1000 // well above physics-1@0.002's nodes
	old := graphio.MaxLoadNodes
	graphio.MaxLoadNodes = limit // before the server's goroutines start
	t.Cleanup(func() { graphio.MaxLoadNodes = old })
	_, c := newMutableServer(t)
	ctx := context.Background()

	for _, e := range []api.EdgeSpec{{U: 0, V: limit}, {U: limit + 7, V: 1}} {
		_, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1", Insert: []api.EdgeSpec{e}})
		var se *api.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
			t.Fatalf("insert %v: err %v, want a 400", e, err)
		}
	}
	gs, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Graphs[0].Version != 0 {
		t.Fatalf("refused inserts moved the version to %d", gs.Graphs[0].Version)
	}
	mres, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1",
		Insert: []api.EdgeSpec{{U: 0, V: limit - 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Version != 1 || mres.Nodes != limit {
		t.Fatalf("insert below the cap: version %d, %d nodes; want 1, %d", mres.Version, mres.Nodes, limit)
	}
}

// TestMutateRejections covers the failure surface: immutable graphs,
// unknown graphs, empty batches, bad methods.
func TestMutateRejections(t *testing.T) {
	_, _, c := newTestServer(t) // static registry: not mutable
	ctx := context.Background()

	if _, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1", Grow: 1}); err == nil {
		t.Fatal("mutating an immutable graph succeeded")
	} else if !strings.Contains(err.Error(), "not mutable") {
		t.Fatalf("wrong error for immutable graph: %v", err)
	}
	if _, err := c.Mutate(ctx, api.MutateRequest{Graph: "nope", Grow: 1}); err == nil {
		t.Fatal("mutating an unknown graph succeeded")
	}
	if _, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1"}); err == nil {
		t.Fatal("empty mutation succeeded")
	}
}

// TestGraphsListsVersion checks the registry listing carries the
// mutability flag and the live version.
func TestGraphsListsVersion(t *testing.T) {
	_, c := newMutableServer(t)
	ctx := context.Background()

	gs, err := c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Graphs[0].Mutable || gs.Graphs[0].Version != 0 {
		t.Fatalf("fresh mutable listing: %+v", gs.Graphs[0])
	}
	if !strings.HasSuffix(gs.Graphs[0].Hash, "@v0") {
		t.Fatalf("mutable hash %q lacks version stamp", gs.Graphs[0].Hash)
	}
	if _, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1", Grow: 2}); err != nil {
		t.Fatal(err)
	}
	gs, err = c.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Graphs[0].Version != 1 {
		t.Fatalf("version after mutation = %d, want 1", gs.Graphs[0].Version)
	}
}

// TestConcurrentQueriesAndMutations races queries against mutations —
// under -race this is the proof that the per-epoch view freeze keeps
// solves off mutating state.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	_, c := newMutableServer(t)
	ctx := context.Background()
	req := api.Request{Op: api.OpSLEM, Graph: "physics-1", Params: tinyParams()}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.Query(ctx, req); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := c.Mutate(ctx, api.MutateRequest{Graph: "physics-1", Grow: 2}); err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
