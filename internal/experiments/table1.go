package experiments

import (
	"context"
	"fmt"

	"mixtime/internal/datasets"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/textplot"
)

// Table1Row reproduces one row of Table 1: the dataset, its paper
// metadata, and the measured properties of the synthetic substitute.
type Table1Row struct {
	Name       string
	Kind       datasets.Kind
	PaperNodes int
	PaperEdges int64
	PaperMu    float64
	// Nodes/Edges/Mu are measured on the substitute at the run scale.
	Nodes int
	Edges int64
	Mu    float64
	// Converged reports whether the SLEM estimate met tolerance.
	Converged bool
}

// Table1Context regenerates Table 1 at the configured scale: every
// dataset substitute is generated, its largest component extracted,
// and its SLEM measured. ctx is checked between datasets and threaded
// into each SLEM estimation, and obs receives one KindDatasetDone per
// dataset.
func Table1Context(ctx context.Context, cfg Config, obs runner.Observer) ([]Table1Row, error) {
	cfg = cfg.WithDefaults()
	all := datasets.All()
	var rows []Table1Row
	for i, d := range all {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: table1 cancelled before %s: %w", d.Name, err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		est, err := spectral.SLEMContext(ctx, g, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		rows = append(rows, Table1Row{
			Name:       d.Name,
			Kind:       d.Kind,
			PaperNodes: d.PaperNodes,
			PaperEdges: d.PaperEdges,
			PaperMu:    d.PaperMu,
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			Mu:         est.Mu,
			Converged:  est.Converged,
		})
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: d.Name,
			Stage: "spectral", Done: i + 1, Total: len(all), Iterations: est.Iterations})
	}
	return rows, nil
}

// RenderTable1 formats the rows like the paper's Table 1, paper
// columns beside measured ones.
func RenderTable1(rows []Table1Row) string {
	header := []string{"dataset", "kind", "paper n", "paper m", "paper µ", "n", "m", "µ"}
	var cells [][]string
	for _, r := range rows {
		mu := fmt.Sprintf("%.4f", r.Mu)
		if !r.Converged {
			mu += "*"
		}
		cells = append(cells, []string{
			r.Name, string(r.Kind),
			fmt.Sprintf("%d", r.PaperNodes), fmt.Sprintf("%d", r.PaperEdges),
			fmt.Sprintf("%.4f", r.PaperMu),
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Edges), mu,
		})
	}
	return "Table 1: datasets, their properties and their second largest eigenvalues\n" +
		textplot.Table(header, cells)
}
