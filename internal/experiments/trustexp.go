package experiments

import (
	"context"
	"fmt"

	"mixtime/internal/datasets"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/textplot"
	"mixtime/internal/trust"
)

// TrustRow measures what incorporating trust into the walk costs in
// mixing time on one dataset — the paper's concluding future-work
// direction ("cost models that consider the different mixing times of
// social graphs and their relation to the trust model"). Each row
// compares the plain walk's µ with two trust-modulated walks:
// similarity weighting (walks prefer embedded strong ties) and
// hesitation (per-hop reluctance, α = 0.5).
type TrustRow struct {
	Dataset string
	Kind    datasets.Kind
	// MuUniform, MuJaccard, MuHesitant: SLEM of the plain, the
	// similarity-weighted, and the α=0.5 hesitant walk.
	MuUniform, MuJaccard, MuHesitant float64
	// T10Uniform, T10Jaccard, T10Hesitant: the Sinclair lower bound
	// on T(0.1) implied by each µ.
	T10Uniform, T10Jaccard, T10Hesitant float64
}

// trustDatasets span the trust spectrum: loose online, interaction,
// strict co-authorship.
var trustDatasets = []string{"wiki-vote", "facebook", "enron", "physics-1", "physics-3"}

// TrustModelsContext runs the trust-cost experiment. ctx is checked
// per dataset and threaded into each weighted SLEM, and each finished
// dataset reports as a KindDatasetDone.
func TrustModelsContext(ctx context.Context, cfg Config, obs runner.Observer) ([]TrustRow, error) {
	cfg = cfg.WithDefaults()
	opt := spectral.Options{Tol: cfg.SpectralTol, Seed: cfg.Seed, Collector: cfg.Collector}
	var rows []TrustRow
	for i, name := range trustDatasets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: trust models cancelled before %s: %w", name, err)
		}
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		row := TrustRow{Dataset: name, Kind: d.Kind}

		uni, err := trust.NewChain(g, trust.UniformWeights(g), 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		jac, err := trust.NewChain(g, trust.JaccardWeights(g), 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		hes, err := trust.NewChain(g, trust.UniformWeights(g), 0.5)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		for _, c := range []struct {
			chain *trust.Chain
			mu    *float64
			t10   *float64
		}{
			{uni, &row.MuUniform, &row.T10Uniform},
			{jac, &row.MuJaccard, &row.T10Jaccard},
			{hes, &row.MuHesitant, &row.T10Hesitant},
		} {
			est, err := c.chain.SLEMContext(ctx, opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			*c.mu = est.Mu
			*c.t10 = spectral.MixingLowerBound(est.Mu, 0.1)
		}
		rows = append(rows, row)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: i + 1, Total: len(trustDatasets)})
	}
	return rows, nil
}

// RenderTrust formats the trust experiment as a table.
func RenderTrust(rows []TrustRow) string {
	header := []string{"dataset", "kind", "µ plain", "µ jaccard", "µ hesitant", "T(0.1) plain", "jaccard", "hesitant"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, string(r.Kind),
			fmt.Sprintf("%.5f", r.MuUniform),
			fmt.Sprintf("%.5f", r.MuJaccard),
			fmt.Sprintf("%.5f", r.MuHesitant),
			fmt.Sprintf("%.0f", r.T10Uniform),
			fmt.Sprintf("%.0f", r.T10Jaccard),
			fmt.Sprintf("%.0f", r.T10Hesitant),
		})
	}
	return "Trust-modulated walks: stricter trust ⇒ slower mixing (future-work model)\n" +
		textplot.Table(header, cells)
}
