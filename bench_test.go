// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the coarse end-to-end ablations from DESIGN.md §7.
// The experiment benchmarks iterate the runner registry, so a driver
// registered in internal/experiments is benchmarked with no further
// wiring:
//
//	go test -bench=Experiments/F3 -benchmem
//
// doubles as the reproduction harness (EXPERIMENTS.md records a full
// annotated run at larger scale via cmd/paperfigs).
//
// The fine-grained kernel benchmarks (Step, StepBlock, the
// eigensolvers, the distributed walker flood) live next to their
// kernels — internal/markov, internal/spectral, internal/distmix —
// so their test binaries link only their own dependencies and stay
// layout-stable as the rest of the repo grows.
package mixtime_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"mixtime"
	_ "mixtime/internal/experiments" // register the paper's artifacts
	"mixtime/internal/markov"
	"mixtime/internal/runner"
)

// benchCfg keeps the per-iteration cost of the heavier drivers around
// a second on one core.
var benchCfg = runner.Config{
	Scale:   0.001,
	Seed:    1,
	Sources: 50,
	MaxWalk: 300,
}

// BenchmarkExperiments runs every registered artifact (T1, F1–F8,
// X1–X7, D1–D2) as a sub-benchmark keyed by its DESIGN.md §5 ID.
func BenchmarkExperiments(b *testing.B) {
	ctx := context.Background()
	for _, def := range runner.Default().Defs() {
		b.Run(def.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := def.Run(ctx, benchCfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (design choices from DESIGN.md §7) -------------------

func ablationGraph() *mixtime.Graph {
	d, err := mixtime.DatasetByName("physics-2")
	if err != nil {
		panic(err)
	}
	return d.Generate(0.1, 1)
}

func BenchmarkPropagationMC(b *testing.B) {
	g := ablationGraph()
	c, err := mixtime.NewChain(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MCTrace(0, 100, 10_000, rng)
	}
}

func BenchmarkLazyVsPlainChain(b *testing.B) {
	g := ablationGraph()
	for _, mode := range []struct {
		name string
		opts []markov.Option
	}{{"plain", nil}, {"lazy", []markov.Option{markov.Lazy()}}} {
		b.Run(mode.name, func(b *testing.B) {
			c, err := markov.New(g, mode.opts...)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				c.TraceFrom(0, 50)
			}
		})
	}
}
