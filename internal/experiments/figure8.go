package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
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

// Fig8Config extends the shared Config with the protocol knobs.
type Fig8Config struct {
	Config
	// Nodes caps each graph via BFS sampling (default 2000; the
	// paper uses 10,000-node samples).
	Nodes int
	// R0 is SybilLimit's route-count multiplier (default 3 here for
	// runtime; the SybilLimit paper suggests 4).
	R0 float64
	// Walks overrides the walk-length sweep.
	Walks []int
}

func (c Fig8Config) withDefaults() Fig8Config {
	c.Config = c.Config.WithDefaults()
	if c.Nodes <= 0 {
		c.Nodes = 2000
	}
	if c.R0 <= 0 {
		c.R0 = 3
	}
	if len(c.Walks) == 0 {
		c.Walks = fig8Walks
	}
	return c
}

// fig8Datasets mirror the paper: the three physics graphs plus
// 10K-node samples of Facebook A and Slashdot 1.
var fig8Datasets = []string{"physics-1", "physics-2", "physics-3", "facebook-A", "slashdot-1"}

// Figure8Context reproduces the SybilLimit admission experiment. ctx
// is checked per dataset and per walk length, and each finished
// dataset reports as a KindDatasetDone.
func Figure8Context(ctx context.Context, cfg Fig8Config, obs runner.Observer) ([]Fig8Curve, error) {
	cfg = cfg.withDefaults()
	var curves []Fig8Curve
	for i, name := range fig8Datasets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: figure8 cancelled before %s: %w", name, err)
		}
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		if g.NumNodes() > cfg.Nodes {
			rng := rand.New(rand.NewPCG(cfg.Seed, 0xf8))
			sub, _ := graph.BFSSubgraph(g, graph.NodeID(rng.IntN(g.NumNodes())), cfg.Nodes)
			g, _ = graph.LargestComponent(sub)
		}
		curve := Fig8Curve{Dataset: name, Nodes: g.NumNodes(), Edges: g.NumEdges(), W: cfg.Walks}
		verifier := graph.NodeID(0)
		suspects := sybil.AllHonest(g, verifier)
		for _, w := range cfg.Walks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: figure8 cancelled at %s w=%d: %w", name, w, err)
			}
			p, err := sybil.NewProtocol(g, sybil.Config{
				W:    w,
				R0:   cfg.R0,
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
