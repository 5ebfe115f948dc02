package experiments

import (
	"context"
	"fmt"

	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/sybil"
	"mixtime/internal/textplot"
)

// fig8Walks is the walk-length sweep for the SybilLimit experiment.
var fig8Walks = []int{1, 2, 3, 4, 6, 8, 10, 15, 20, 30}

// Fig8Curve is one dataset's SybilLimit admission curve: the fraction
// of honest nodes a trusted verifier admits at each walk length w,
// with no attacker present (SybilLimit bounds sybil admissions by
// attack edges, so the no-attacker run isolates the utility cost of
// slow mixing — the paper's point).
type Fig8Curve struct {
	Dataset string
	Nodes   int
	Edges   int64
	R       int
	W       []int
	Accept  []float64
}

// Figure 8 samples each graph down to at most fig8Nodes nodes (the
// paper uses 10,000-node samples) and runs SybilLimit with route-count
// multiplier fig8R0 (3 for runtime; the SybilLimit paper suggests 4).
const (
	fig8Nodes = 2000
	fig8R0    = 3
)

// fig8Datasets mirror the paper: the three physics graphs plus
// 10K-node samples of Facebook A and Slashdot 1.
var fig8Datasets = []string{"physics-1", "physics-2", "physics-3", "facebook-A", "slashdot-1"}

// Figure8Context reproduces the SybilLimit admission experiment. ctx
// is checked per dataset and per walk length, and each finished
// dataset reports as a KindDatasetDone.
func Figure8Context(ctx context.Context, cfg Config, obs runner.Observer) ([]Fig8Curve, error) {
	cfg = cfg.WithDefaults()
	var curves []Fig8Curve
	for i, name := range fig8Datasets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: figure8 cancelled before %s: %w", name, err)
		}
		g, err := cappedSample(name, cfg, fig8Nodes, 0xf8)
		if err != nil {
			return nil, err
		}
		curve := Fig8Curve{Dataset: name, Nodes: g.NumNodes(), Edges: g.NumEdges(), W: fig8Walks}
		verifier := graph.NodeID(0)
		suspects := sybil.AllHonest(g, verifier)
		for _, w := range fig8Walks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: figure8 cancelled at %s w=%d: %w", name, w, err)
			}
			p, err := sybil.NewProtocol(g, sybil.Config{
				W:    w,
				R0:   fig8R0,
				Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s w=%d: %w", name, w, err)
			}
			res := p.Verify(verifier, suspects)
			curve.R = res.R
			curve.Accept = append(curve.Accept, res.AcceptRate())
		}
		curves = append(curves, curve)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: i + 1, Total: len(fig8Datasets)})
	}
	return curves, nil
}

// RenderFig8 draws the admission-rate chart.
func RenderFig8(curves []Fig8Curve) string {
	var series []textplot.Series
	for _, c := range curves {
		xs := make([]float64, len(c.W))
		ys := make([]float64, len(c.W))
		for i, w := range c.W {
			xs[i] = float64(w)
			ys[i] = 100 * c.Accept[i]
		}
		series = append(series, textplot.Series{
			Name: fmt.Sprintf("%s (n=%d, r=%d)", c.Dataset, c.Nodes, c.R),
			X:    xs,
			Y:    ys,
		})
	}
	return textplot.Chart(textplot.Options{
		Title:  "Figure 8: SybilLimit admission rate vs random walk length",
		XLabel: "random walk length w",
		YLabel: "accepted %",
	}, series...)
}
