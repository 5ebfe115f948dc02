// Kernel benchmarks for the propagation hot paths. They live in the
// markov test binary — not the repo-root one — so the snapshot
// scripts/bench.sh records depends only on this package and its
// dependencies: code growth elsewhere in the repo cannot shift the
// hot loops' binary layout and fake a regression in benchdiff.
package markov_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/telemetry"
)

// kernelGraph is the physics-2 substitute at a scale where one CSR
// pass is a few tens of microseconds — the ablation workload of
// DESIGN.md §7.
func kernelGraph() *graph.Graph {
	d, err := datasets.ByName("physics-2")
	if err != nil {
		panic(err)
	}
	return d.Generate(0.1, 1)
}

// benchStep runs the single-distribution CSR kernel with an optional
// telemetry collector attached to the chain.
func benchStep(b *testing.B, col *telemetry.Collector) {
	g := kernelGraph()
	var opts []markov.Option
	if col != nil {
		opts = append(opts, markov.WithCollector(col))
	}
	c, err := markov.New(g, opts...)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	p := c.Delta(0)
	q := make([]float64, n)
	scratch := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(q, p, scratch)
		p, q = q, p
	}
}

// BenchmarkStep is the uninstrumented single-distribution kernel
// baseline. BenchmarkStepCollector is the identical kernel with a
// live telemetry collector; DESIGN.md §8's overhead contract says the
// pair must stay within noise of each other, because counters are
// bumped once per CSR pass, never per edge. bench.sh snapshots both,
// so benchdiff flags a drift in either.
func BenchmarkStep(b *testing.B)          { benchStep(b, nil) }
func BenchmarkStepCollector(b *testing.B) { benchStep(b, telemetry.New()) }

// BenchmarkStepBlock measures the SpMV→SpMM transformation: one
// blocked step serves B source distributions per CSR pass, so the
// per-neighbor index loads are amortized across the block. The
// ns/source metric is the per-source cost; B=1 is the sequential
// baseline it must beat. B=2 and B=6 run the narrow-tail kernels
// (2-lane, and 4-lane plus 2-lane), so check.sh's zero-alloc gate
// covers them too.
func BenchmarkStepBlock(b *testing.B) {
	g := kernelGraph()
	c, err := markov.New(g)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	for _, width := range []int{1, 2, 4, 6, 8, 16} {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			p := make([]float64, n*width)
			q := make([]float64, n*width)
			scratch := make([]float64, n*width)
			for j := 0; j < width; j++ {
				p[j*width+j] = 1 // source j starts at vertex j
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.StepBlock(q, p, width, scratch)
				p, q = q, p
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(width),
				"ns/source")
		})
	}
}

// BenchmarkTraceSampleBlocked measures the full blocked trace sampler
// the experiment drivers run on, per-source, against the per-source
// sequential path (B=1).
func BenchmarkTraceSampleBlocked(b *testing.B) {
	g := kernelGraph()
	c, err := markov.New(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	sources := markov.SampleSources(g, 16, rng)
	for _, width := range []int{1, 8} {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.TraceSampleBlockedContext(context.Background(), sources, 50, 0, width, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sources)),
				"ns/source")
		})
	}
}

// BenchmarkMCTrace measures the Monte-Carlo walker kernel: 256
// walkers stepped through the fastrand.PCG neighbor-draw loop. The
// per-op allocations are the trace and walker arrays (setup); the
// per-step path is allocation-free.
func BenchmarkMCTrace(b *testing.B) {
	g := kernelGraph()
	c, err := markov.New(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MCTrace(0, 50, 256, rng)
	}
}

func BenchmarkPropagationExact(b *testing.B) {
	g := kernelGraph()
	c, err := markov.New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TraceFrom(0, 100)
	}
}
