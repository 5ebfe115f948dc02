package experiments

import (
	"context"
	"fmt"
	"slices"

	"mixtime/internal/core"
	"mixtime/internal/datasets"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/stats"
	"mixtime/internal/textplot"
)

// physicsNames are the co-authorship graphs Figures 3–5 brute-force.
var physicsNames = []string{"physics-1", "physics-2", "physics-3"}

// DistanceCDF holds, for one dataset and one probe walk length, the
// per-source variation distances whose CDF the paper plots.
type DistanceCDF struct {
	Dataset   string
	W         int
	Distances []float64
}

// measurePhysics runs the propagation pass for one physics dataset:
// traces from up to cfg.Sources vertices (every vertex when the scaled
// graph is small enough — the paper's brute force), propagated only as
// far as the longest probe walk the figure reads, and the SLEM only
// when the figure prints µ (withSLEM). Source completions stream to
// obs as KindStageProgress events.
func measurePhysics(ctx context.Context, name string, walks []int, withSLEM bool, cfg Config, obs runner.Observer) (*core.Measurement, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	g := d.Generate(cfg.Scale, cfg.Seed)
	var progress func(stage string, done, total int)
	if obs != nil {
		progress = func(stage string, done, total int) {
			runner.Emit(obs, runner.Event{Kind: runner.KindStageProgress,
				Dataset: name, Stage: stage, Done: done, Total: total})
		}
	}
	return core.MeasureContext(ctx, g, core.Options{
		Sources:      cfg.Sources,
		MaxWalk:      min(cfg.MaxWalk, slices.Max(walks)),
		SpectralTol:  cfg.SpectralTol,
		Seed:         cfg.Seed,
		SkipSpectral: !withSLEM,
		Workers:      cfg.Workers,
		BlockSize:    cfg.BlockSize,
		Progress:     progress,
		Collector:    cfg.Collector,
	})
}

// distanceCDFs extracts the probe-walk CDFs from a measurement.
func distanceCDFs(name string, m *core.Measurement, walks []int) []DistanceCDF {
	out := make([]DistanceCDF, 0, len(walks))
	for _, w := range walks {
		out = append(out, DistanceCDF{Dataset: name, W: w, Distances: m.DistancesAt(w)})
	}
	return out
}

// physicsCDFs is the shared Figure 3/4 loop over the named datasets.
func physicsCDFs(ctx context.Context, names []string, walks []int, cfg Config, obs runner.Observer) ([]DistanceCDF, error) {
	cfg = cfg.WithDefaults()
	var rows []DistanceCDF
	for i, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: cancelled before %s: %w", name, err)
		}
		m, err := measurePhysics(ctx, name, walks, false, cfg, obs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rows = append(rows, distanceCDFs(name, m, walks)...)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: i + 1, Total: len(names)})
	}
	return rows, nil
}

// Figure3Context reproduces the short-walk CDFs (w ∈ {1,5,10,20,40})
// of the three physics co-authorship graphs, with cancellation and
// progress.
func Figure3Context(ctx context.Context, cfg Config, obs runner.Observer) ([]DistanceCDF, error) {
	return physicsCDFs(ctx, physicsNames, probeWalksShort, cfg, obs)
}

// Figure4Context reproduces the long-walk CDFs (w ∈ {80..500}) for
// physics-2 and physics-3, with cancellation and progress.
func Figure4Context(ctx context.Context, cfg Config, obs runner.Observer) ([]DistanceCDF, error) {
	return physicsCDFs(ctx, physicsNames[1:], probeWalksLong, cfg, obs)
}

// RenderDistanceCDFs draws one dataset's CDFs (one series per walk
// length): x = variation distance, y = fraction of sources.
func RenderDistanceCDFs(title string, rows []DistanceCDF) string {
	var series []textplot.Series
	for _, r := range rows {
		xs, ys := stats.NewCDF(r.Distances).Points(64)
		series = append(series, textplot.Series{
			Name: fmt.Sprintf("w=%d", r.W),
			X:    xs,
			Y:    ys,
		})
	}
	return textplot.Chart(textplot.Options{
		Title:  title,
		XLabel: "total variation distance",
		YLabel: "CDF",
	}, series...)
}

// Fig5Curve compares, for one physics dataset, the sampled mixing
// behaviour with the SLEM lower bound: for each walk length, the mean
// per-source distance, the 99.9th-percentile (worst-case) distance,
// and the distance the Sinclair bound associates with that walk
// length.
type Fig5Curve struct {
	Dataset  string
	Mu       float64
	W        []int
	MeanTV   []float64
	Q999TV   []float64
	BoundEps []float64
}

// Figure5Context reproduces the lower-bound-vs-sampling comparison
// for the three physics graphs, with cancellation and progress.
func Figure5Context(ctx context.Context, cfg Config, obs runner.Observer) ([]Fig5Curve, error) {
	cfg = cfg.WithDefaults()
	walks := append(append([]int{}, probeWalksShort...), probeWalksLong...)
	var out []Fig5Curve
	for i, name := range physicsNames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: figure5 cancelled before %s: %w", name, err)
		}
		m, err := measurePhysics(ctx, name, walks, true, cfg, obs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		c := Fig5Curve{Dataset: name, Mu: m.Mu(), W: walks}
		for _, w := range walks {
			d := m.DistancesAt(w)
			c.MeanTV = append(c.MeanTV, stats.Summarize(d).Mean)
			c.Q999TV = append(c.Q999TV, stats.NewCDF(d).Quantile(0.999))
			c.BoundEps = append(c.BoundEps, spectral.EpsilonAtWalkLength(m.Mu(), float64(w)))
		}
		out = append(out, c)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: i + 1, Total: len(physicsNames)})
	}
	return out, nil
}

// RenderFig5 draws one dataset's Figure-5 panel.
func RenderFig5(c Fig5Curve) string {
	xs := make([]float64, len(c.W))
	for i, w := range c.W {
		xs[i] = float64(w)
	}
	return textplot.Chart(textplot.Options{
		Title:  fmt.Sprintf("Figure 5 (%s): lower bound vs sampled mixing (µ=%.5f)", c.Dataset, c.Mu),
		XLabel: "walk length",
		YLabel: "ε",
		LogY:   true,
	},
		textplot.Series{Name: "top 99.9% sampled", X: xs, Y: c.Q999TV},
		textplot.Series{Name: "mean sampled", X: xs, Y: c.MeanTV},
		textplot.Series{Name: "SLEM lower bound", X: xs, Y: c.BoundEps},
	)
}

// traceMeanAtWalks is shared by Figure 6: pointwise mean distance at
// the probe walk lengths.
func traceMeanAtWalks(traces []*markov.Trace, walks []int) []float64 {
	out := make([]float64, len(walks))
	for i, w := range walks {
		out[i] = stats.Summarize(markov.DistancesAt(traces, w)).Mean
	}
	return out
}
