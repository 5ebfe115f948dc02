// Package experiments contains one driver per table and figure of the
// paper's evaluation, each returning typed rows that cmd/paperfigs
// renders and bench_test.go wraps as benchmarks. Every driver accepts
// the same Config so the whole evaluation scales from a quick smoke
// run to (hardware permitting) the paper's full sizes.
//
// Each artifact also registers (in registry.go) into the
// internal/runner registry under its DESIGN.md §5 ID behind the
// uniform Run(ctx, cfg, obs) contract; cmd/paperfigs schedules the
// registered experiments instead of calling the drivers directly.
package experiments

import (
	"math"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
)

// Config scales and seeds an experiment run. It is an alias for
// runner.Config — the canonical definition lives there so the runner,
// the drivers and core share one set of defaults (see
// api.DefaultScale and friends).
type Config = runner.Config

// spectralOptions is the SLEM configuration of the spectral drivers:
// the run's tolerance, seed, matvec workers and collector.
func spectralOptions(cfg Config) spectral.Options {
	return spectral.Options{Tol: cfg.SpectralTol, Seed: cfg.Seed, Workers: cfg.Workers,
		Collector: cfg.Collector}
}

// cappedSample generates dataset name at the run's scale and seed and,
// when it has more than maxNodes nodes, BFS-samples maxNodes of them
// from a start drawn from PCG(cfg.Seed, stream) and keeps the sample's
// largest component. The SybilLimit, SybilInfer, defense and Whānau
// drivers run on such samples.
func cappedSample(name string, cfg Config, maxNodes int, stream uint64) (*graph.Graph, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	g := d.Generate(cfg.Scale, cfg.Seed)
	if g.NumNodes() > maxNodes {
		rng := rand.New(rand.NewPCG(cfg.Seed, stream))
		sub, _ := graph.BFSSubgraph(g, graph.NodeID(rng.IntN(g.NumNodes())), maxNodes)
		g, _ = graph.LargestComponent(sub)
	}
	return g, nil
}

// epsGrid is the variation-distance grid the bound figures sweep,
// from 0.25 down to 1e-4 (the paper's axes).
func epsGrid() []float64 {
	const k = 13
	out := make([]float64, k)
	hi, lo := 0.25, 1e-4
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = hi * math.Exp(-ratio*float64(i)/float64(k-1))
	}
	return out
}

// probeWalksShort are Figure 3's walk lengths, probeWalksLong
// Figure 4's.
var (
	probeWalksShort = []int{1, 5, 10, 20, 40}
	probeWalksLong  = []int{80, 100, 200, 300, 400, 500}
)
