package experiments

import (
	"context"
	"fmt"

	"mixtime/internal/datasets"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/textplot"
)

// BoundCurve is one dataset's Sinclair lower-bound curve: the walk
// length T required (per the SLEM bound) to reach each variation
// distance ε — the content of Figures 1 and 2.
type BoundCurve struct {
	Dataset string
	Mu      float64
	Eps     []float64
	T       []float64
}

// boundCurves measures the given datasets and derives their bound
// curves, checking ctx between datasets and reporting each finished
// one to obs.
func boundCurves(ctx context.Context, ds []datasets.Dataset, cfg Config, obs runner.Observer) ([]BoundCurve, error) {
	cfg = cfg.WithDefaults()
	grid := epsGrid()
	var out []BoundCurve
	for i, d := range ds {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: bound curves cancelled before %s: %w", d.Name, err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		est, err := spectral.SLEMContext(ctx, g, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		c := BoundCurve{Dataset: d.Name, Mu: est.Mu, Eps: grid, T: make([]float64, len(grid))}
		for i, eps := range grid {
			c.T[i] = spectral.MixingLowerBound(est.Mu, eps)
		}
		out = append(out, c)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: d.Name,
			Done: i + 1, Total: len(ds)})
	}
	return out, nil
}

// Figure1Context computes the lower-bound mixing-time curves for the
// small datasets (wiki-vote, Slashdot 1/2, Facebook, Physics 1–3,
// Enron, Epinion), with cancellation and progress.
func Figure1Context(ctx context.Context, cfg Config, obs runner.Observer) ([]BoundCurve, error) {
	return boundCurves(ctx, datasets.Small(), cfg, obs)
}

// Figure2Context computes the curves for the large datasets (DBLP,
// Facebook A/B, Livejournal A/B, Youtube), with cancellation and
// progress.
func Figure2Context(ctx context.Context, cfg Config, obs runner.Observer) ([]BoundCurve, error) {
	return boundCurves(ctx, datasets.Large(), cfg, obs)
}

// RenderBoundCurves draws the curves as an ASCII chart, ε (log)
// against the bound walk length, mirroring the paper's axes.
func RenderBoundCurves(title string, curves []BoundCurve) string {
	series := make([]textplot.Series, len(curves))
	for i, c := range curves {
		series[i] = textplot.Series{
			Name: fmt.Sprintf("%s (µ=%.4f)", c.Dataset, c.Mu),
			X:    c.T,
			Y:    c.Eps,
		}
	}
	return textplot.Chart(textplot.Options{
		Title:  title,
		XLabel: "lower bound of mixing time (walk length)",
		YLabel: "ε",
		LogY:   true,
	}, series...)
}
