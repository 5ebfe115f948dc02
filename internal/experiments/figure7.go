package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/stats"
	"mixtime/internal/textplot"
)

// fig7Datasets are the four large graphs the paper BFS-samples at
// 10K, 100K and 1000K nodes.
var fig7Datasets = []string{"facebook-A", "facebook-B", "livejournal-A", "livejournal-B"}

// fig7PaperSizes are the paper's sample sizes; the run scales them by
// Config.Scale.
var fig7PaperSizes = []int{10_000, 100_000, 1_000_000}

// Fig7Panel is one of the twelve panels of Figure 7: a dataset at a
// sample size, with the sampled percentile bands of the per-source
// distance at each walk length against the SLEM lower-bound curve.
type Fig7Panel struct {
	Dataset    string
	SampleSize int // requested (scaled) sample size
	Nodes      int // realized size after BFS + LCC
	Mu         float64
	W          []int
	Top10      []float64 // mean of the fastest 10% of sources
	Med20      []float64 // mean of the middle 20%
	Low10      []float64 // mean of the slowest 10%
	BoundEps   []float64 // ε from the Sinclair bound at each w
}

// Figure7Context reproduces the sampling-versus-lower-bound
// comparison. Each large dataset substitute is generated at full run
// scale, then BFS-sampled (as the paper does, noting BFS can only
// bias the sample toward faster mixing) at the three scaled sizes.
// ctx is checked before every (dataset, sample size) panel and
// threaded into the SLEM and trace propagation; each finished panel
// reports as a KindDatasetDone.
func Figure7Context(ctx context.Context, cfg Config, obs runner.Observer) ([]Fig7Panel, error) {
	cfg = cfg.WithDefaults()
	walks := append(append([]int{}, probeWalksShort...), probeWalksLong...)
	totalPanels := len(fig7Datasets) * len(fig7PaperSizes)
	var panels []Fig7Panel
	for _, name := range fig7Datasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		full := d.Generate(cfg.Scale, cfg.Seed)
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xf167))
		for _, paperSize := range fig7PaperSizes {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: figure7 cancelled before %s/%d: %w", name, paperSize, err)
			}
			size := int(float64(paperSize) * cfg.Scale)
			if size < 100 {
				size = 100
			}
			if size > full.NumNodes() {
				size = full.NumNodes()
			}
			start := graph.NodeID(rng.IntN(full.NumNodes()))
			sub, _ := graph.BFSSubgraph(full, start, size)
			sub, _ = graph.LargestComponent(sub)

			est, err := spectral.SLEMContext(ctx, sub, spectralOptions(cfg))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%d: %w", name, paperSize, err)
			}
			chain, err := markov.New(sub, markov.WithCollector(cfg.Collector))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%d: %w", name, paperSize, err)
			}
			sources := markov.SampleSources(sub, cfg.Sources, rng)
			traces, err := chain.TraceSampleBlockedContext(ctx, sources, cfg.MaxWalk, 0, cfg.BlockSize, cfg.Workers, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%d: %w", name, paperSize, err)
			}

			p := Fig7Panel{
				Dataset:    name,
				SampleSize: size,
				Nodes:      sub.NumNodes(),
				Mu:         est.Mu,
				W:          walks,
			}
			for _, w := range walks {
				b := stats.PercentileBands(markov.DistancesAt(traces, w))
				p.Top10 = append(p.Top10, b.Top10)
				p.Med20 = append(p.Med20, b.Median20)
				p.Low10 = append(p.Low10, b.Low10)
				p.BoundEps = append(p.BoundEps, spectral.EpsilonAtWalkLength(est.Mu, float64(w)))
			}
			panels = append(panels, p)
			runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone,
				Dataset: fmt.Sprintf("%s/%d", name, paperSize),
				Done:    len(panels), Total: totalPanels})
		}
	}
	return panels, nil
}

// RenderFig7Panel draws one panel.
func RenderFig7Panel(p Fig7Panel) string {
	xs := make([]float64, len(p.W))
	for i, w := range p.W {
		xs[i] = float64(w)
	}
	return textplot.Chart(textplot.Options{
		Title: fmt.Sprintf("Figure 7 (%s, %d nodes): sampling vs lower bound (µ=%.5f)",
			p.Dataset, p.Nodes, p.Mu),
		XLabel: "walk length",
		YLabel: "ε",
		LogY:   true,
	},
		textplot.Series{Name: "top 10% (fastest sources)", X: xs, Y: p.Top10},
		textplot.Series{Name: "median 20%", X: xs, Y: p.Med20},
		textplot.Series{Name: "lowest 10% (slowest sources)", X: xs, Y: p.Low10},
		textplot.Series{Name: "SLEM lower bound", X: xs, Y: p.BoundEps},
	)
}
