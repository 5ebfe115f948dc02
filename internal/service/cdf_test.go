package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"mixtime/internal/api"
	"mixtime/internal/gen"
	"mixtime/internal/telemetry"
)

// cdfRegistry serves the graphs of the cdf pins: the two small
// cold-solve substitutes, generated as the repository benchmark
// generates them (seed 1), and a bipartite grid, which the cdf op
// measures on the lazy chain.
func cdfRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, name := range []string{"wiki-vote", "physics-1"} {
		if _, err := reg.AddDataset(name, 0.1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.AddGraph("grid", "gen:grid:8x10", gen.Grid(8, 10)); err != nil {
		t.Fatal(err)
	}
	return reg
}

// solveCDFRequest runs one cdf request through the service dispatch.
func solveCDFRequest(t *testing.T, reg *Registry, graphName string, p api.Params, col *telemetry.Collector) *api.CDFResult {
	t.Helper()
	e, ok := reg.Get(graphName)
	if !ok {
		t.Fatalf("graph %s not registered", graphName)
	}
	resp, err := solve(context.Background(), api.Request{Op: api.OpCDF, Graph: graphName, Params: p}, e, col)
	if err != nil {
		t.Fatalf("%s: %v", graphName, err)
	}
	return resp.CDF
}

// TestCDFPayloadPinned holds the full cdf payload bytes, recorded
// while every source still propagated to MaxWalk. The op reads only
// first crossings of ε, so a tracer that stops each block at its last
// first crossing must leave every sampled T, completeness flag,
// average and CDF point exactly where it was.
func TestCDFPayloadPinned(t *testing.T) {
	reg := cdfRegistry(t)
	pins := []struct {
		graph   string
		eps     float64
		sources int
		maxWalk int
		seed    uint64
		sha     string
	}{
		{"wiki-vote", 0.1, 16, 100, 1, "6a98e873c4b062f027961fd5d25b27fbbd60f990ffa6a309fe08a4cdaa67cd03"},
		{"wiki-vote", 0.25, 25, 100, 2, "20faa5b01b191780c0fb92249f440ad8032dceb35c0e0533c5564f20880583e6"},
		{"wiki-vote", 0.02, 16, 100, 3, "0a4f7ce9ccd5c23917e8aed3d4b9e1b86e036da2b413005feb49f2c8826a4dcf"},
		{"physics-1", 0.1, 16, 100, 1, "9bf2c41310f8f2a975bfcca28d73806029005cd28f2b078adcae5ee756d13d06"},
		{"physics-1", 0.25, 25, 120, 4, "75ee44a01625441982f7ac708fd6c17f34b832b573e9c5b3cd4c0bad1af4c09d"},
		{"grid", 0.1, 25, 200, 1, "385635a20bd31d948247be1a072f9b3b73636b1f148673d303075ecae4846cd2"},
	}
	for _, c := range pins {
		cdf := solveCDFRequest(t, reg, c.graph, api.Params{Seed: c.seed, Sources: c.sources, MaxWalk: c.maxWalk, Eps: c.eps}, nil)
		b, err := json.Marshal(cdf)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s eps=%v sources=%d seed=%d: payload sha256 %s, want %s\n%s",
				c.graph, c.eps, c.sources, c.seed, got, c.sha, b)
		}
	}
}

// TestCDFStopsAtLastFirstCrossing pins the propagation work of the
// cold-solve cdf shape (16 sources, MaxWalk 100, ε 0.1, two blocks of
// 8): on wiki-vote@0.1 every source crosses ε early, so each block
// halts at its last first crossing; physics-1@0.1 and facebook-A@0.02
// keep a source above ε through step 100 in both blocks and so run
// the full horizon.
func TestCDFStopsAtLastFirstCrossing(t *testing.T) {
	reg := cdfRegistry(t)
	if _, err := reg.AddDataset("facebook-A", 0.02, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		graph                    string
		edges, steps, spmmBlocks int64
	}{
		{"wiki-vote", 813_440, 320, 40},
		{"physics-1", 518_000, 1_600, 200},
		{"facebook-A", 160_944_000, 1_600, 200},
	} {
		col := telemetry.New()
		solveCDFRequest(t, reg, c.graph, api.Params{Seed: 1, Sources: 16, MaxWalk: 100}, col)
		snap := col.Snapshot()
		got := fmt.Sprintf("edges_scanned %d, source_steps %d, spmm_blocks %d",
			snap.Get(telemetry.EdgesScanned), snap.Get(telemetry.SourceSteps), snap.Get(telemetry.SpMMBlocks))
		want := fmt.Sprintf("edges_scanned %d, source_steps %d, spmm_blocks %d", c.edges, c.steps, c.spmmBlocks)
		if got != want {
			t.Errorf("%s: %s, want %s", c.graph, got, want)
		}
	}
}
