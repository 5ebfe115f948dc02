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
	"mixtime/internal/textplot"
)

// Fig6Row is one trim level of the DBLP trimming experiment: "DBLP x"
// in the paper means minimum degree x after iterative removal of
// lower-degree nodes. The row carries both panels: (a) the SLEM
// lower-bound curve and (b) the average sampled distance per walk
// length.
type Fig6Row struct {
	Level int // minimum degree after trimming
	Nodes int
	Edges int64
	Mu    float64
	// Panel (a): bound walk length per ε of the shared grid.
	Eps    []float64
	BoundT []float64
	// Panel (b): mean sampled distance at each probe walk length.
	W      []int
	MeanTV []float64
}

// Figure6Context reproduces the trimming experiment: generate the
// DBLP substitute, trim it to minimum degree 1..5, and measure each
// level both ways. The paper's headline: trimming sharply improves
// mixing but DBLP 5 keeps only ~24% of DBLP 1's nodes — utility
// traded for speed. ctx is checked between trim levels (and inside
// each level's SLEM and trace propagation), and each finished level
// reports as a KindDatasetDone.
func Figure6Context(ctx context.Context, cfg Config, obs runner.Observer) ([]Fig6Row, error) {
	cfg = cfg.WithDefaults()
	d, err := datasets.ByName("dblp")
	if err != nil {
		return nil, err
	}
	full := d.Generate(cfg.Scale, cfg.Seed)
	grid := epsGrid()
	walks := append(append([]int{}, probeWalksShort...), probeWalksLong...)

	var rows []Fig6Row
	for level := 1; level <= 5; level++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: figure6 cancelled before trim level %d: %w", level, err)
		}
		trimmed, _ := graph.Trim(full, level)
		lcc, _ := graph.LargestComponent(trimmed)
		if lcc.NumNodes() < 10 {
			return nil, fmt.Errorf("experiments: trim level %d leaves %d nodes at scale %v",
				level, lcc.NumNodes(), cfg.Scale)
		}
		est, err := spectral.SLEMContext(ctx, lcc, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: dblp-%d: %w", level, err)
		}
		row := Fig6Row{
			Level: level,
			Nodes: lcc.NumNodes(),
			Edges: lcc.NumEdges(),
			Mu:    est.Mu,
			Eps:   grid,
			W:     walks,
		}
		for _, eps := range grid {
			row.BoundT = append(row.BoundT, spectral.MixingLowerBound(est.Mu, eps))
		}
		chain, err := markov.New(lcc, markov.WithCollector(cfg.Collector))
		if err != nil {
			return nil, fmt.Errorf("experiments: dblp-%d: %w", level, err)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(level)))
		sources := markov.SampleSources(lcc, cfg.Sources, rng)
		traces, err := chain.TraceSampleBlockedContext(ctx, sources, cfg.MaxWalk, 0, cfg.BlockSize, cfg.Workers, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: dblp-%d: %w", level, err)
		}
		row.MeanTV = traceMeanAtWalks(traces, walks)
		rows = append(rows, row)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone,
			Dataset: fmt.Sprintf("dblp-%d", level), Done: level, Total: 5})
	}
	return rows, nil
}

// RenderFig6 draws both panels and the size table.
func RenderFig6(rows []Fig6Row) string {
	var boundSeries, meanSeries []textplot.Series
	var cells [][]string
	for _, r := range rows {
		name := fmt.Sprintf("DBLP %d", r.Level)
		boundSeries = append(boundSeries, textplot.Series{
			Name: name, X: r.BoundT, Y: r.Eps,
		})
		xs := make([]float64, len(r.W))
		for i, w := range r.W {
			xs[i] = float64(w)
		}
		meanSeries = append(meanSeries, textplot.Series{
			Name: name, X: xs, Y: r.MeanTV,
		})
		cells = append(cells, []string{
			name, fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%.5f", r.Mu),
		})
	}
	out := textplot.Table([]string{"level", "nodes", "edges", "µ"}, cells)
	out += "\n" + textplot.Chart(textplot.Options{
		Title:  "Figure 6(a): lower bound vs trim level",
		XLabel: "lower bound of mixing time",
		YLabel: "ε",
		LogY:   true,
	}, boundSeries...)
	out += "\n" + textplot.Chart(textplot.Options{
		Title:  "Figure 6(b): average sampled distance vs trim level",
		XLabel: "walk length",
		YLabel: "mean ε",
		LogY:   true,
	}, meanSeries...)
	return out
}
