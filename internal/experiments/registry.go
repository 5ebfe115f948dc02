package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mixtime/internal/api"
	"mixtime/internal/runner"
)

// artifact adapts a driver's typed rows to runner.Result: rendering
// and CSV delegate to the artifact's renderer and CSV writer, JSON
// emits the rows inside the versioned api.Document envelope
// (schema_version, id, name, title, rows) so that a `paperfigs -json`
// file and a mixtimed OpExperiment response are the same document.
type artifact[R any] struct {
	id, name, title string
	rows            R
	render          func(R) string
	csv             func(io.Writer, R) error
}

func (a *artifact[R]) Render() string        { return a.render(a.rows) }
func (a *artifact[R]) CSV(w io.Writer) error { return a.csv(w, a.rows) }
func (a *artifact[R]) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(api.Document{
		SchemaVersion: api.SchemaVersion,
		ID:            a.id,
		Name:          a.name,
		Title:         a.title,
		Rows:          a.rows,
	})
}

// define is the one way an artifact enters the registry: run computes
// its rows, render and csv emit them, and the artifact carries the
// Def's id/name/title into its JSON envelope.
func define[R any](id, name, title string,
	run func(context.Context, Config, runner.Observer) (R, error),
	render func(R) string, csv func(io.Writer, R) error) runner.Def {
	return runner.Def{ID: id, Name: name, Title: title,
		Run: func(ctx context.Context, cfg Config, obs runner.Observer) (runner.Result, error) {
			rows, err := run(ctx, cfg, obs)
			if err != nil {
				return nil, err
			}
			return &artifact[R]{id: id, name: name, title: title,
				rows: rows, render: render, csv: csv}, nil
		}}
}

// RenderCDFGroups draws one chart per dataset from a long-form CDF
// row set (the Figure 3/4 layout).
func RenderCDFGroups(figure string, rows []DistanceCDF, order []string) string {
	var b strings.Builder
	for _, ds := range order {
		var sub []DistanceCDF
		for _, r := range rows {
			if r.Dataset == ds {
				sub = append(sub, r)
			}
		}
		b.WriteString(RenderDistanceCDFs(
			fmt.Sprintf("%s (%s): CDF of variation distance", figure, ds), sub))
		b.WriteByte('\n')
	}
	return b.String()
}

// renderEach renders one panel per item, each followed by a blank
// line (the Figure 5 and Figure 7 layout).
func renderEach[T any](render func(T) string) func([]T) string {
	return func(items []T) string {
		var b strings.Builder
		for _, it := range items {
			b.WriteString(render(it))
			b.WriteByte('\n')
		}
		return b.String()
	}
}

// Figures 1 and 2 print their registry title as the chart header.
const (
	fig1Title = "Figure 1: lower bound of the mixing time — small datasets"
	fig2Title = "Figure 2: lower bound of the mixing time — large datasets"
)

// init registers every artifact of the paper's evaluation into the
// default runner registry under its DESIGN.md §5 ID. The legacy
// cmd/paperfigs names are kept as aliases, so both `-only T1` and
// `-only table1` resolve.
func init() {
	for _, d := range []runner.Def{
		define("T1", "table1",
			"Table 1: datasets, their properties and their second largest eigenvalues",
			Table1Context, RenderTable1, Table1CSV),
		define("F1", "fig1", fig1Title, Figure1Context,
			func(c []BoundCurve) string { return RenderBoundCurves(fig1Title, c) }, BoundCurvesCSV),
		define("F2", "fig2", fig2Title, Figure2Context,
			func(c []BoundCurve) string { return RenderBoundCurves(fig2Title, c) }, BoundCurvesCSV),
		define("F3", "fig3", "Figure 3: CDF of variation distance, short walks, physics graphs",
			Figure3Context,
			func(r []DistanceCDF) string { return RenderCDFGroups("Figure 3", r, physicsNames) },
			DistanceCDFsCSV),
		define("F4", "fig4", "Figure 4: CDF of variation distance, long walks, physics graphs",
			Figure4Context,
			func(r []DistanceCDF) string { return RenderCDFGroups("Figure 4", r, physicsNames[1:]) },
			DistanceCDFsCSV),
		define("F5", "fig5", "Figure 5: lower bound vs sampled mixing, physics graphs",
			Figure5Context, renderEach(RenderFig5), Fig5CSV),
		define("F6", "fig6", "Figure 6: effect of degree-trimming on DBLP",
			Figure6Context, RenderFig6, Fig6CSV),
		define("F7", "fig7", "Figure 7: sampling vs lower bound on BFS samples of the large graphs",
			Figure7Context, renderEach(RenderFig7Panel), Fig7CSV),
		define("F8", "fig8", "Figure 8: SybilLimit admission rate vs random walk length",
			func(ctx context.Context, cfg Config, obs runner.Observer) ([]Fig8Curve, error) {
				return Figure8Context(ctx, Fig8Config{Config: cfg}, obs)
			}, RenderFig8, Fig8CSV),
		define("X1", "attack", "SybilLimit under attack: honest admission vs tail escapes",
			func(ctx context.Context, cfg Config, obs runner.Observer) ([]SybilAttackRow, error) {
				return SybilAttackContext(ctx, SybilAttackConfig{Config: cfg}, obs)
			}, RenderSybilAttack, SybilAttackCSV),
		define("X2", "conductance", "Conductance: Cheeger bounds and spectral sweep cuts",
			ConductanceContext, RenderConductance, ConductanceCSV),
		define("X3", "whanau", "Whānau check: walk-tail edge distributions vs uniform",
			WhanauContext, RenderWhanau, WhanauCSV),
		define("X4", "trust", "Trust-modulated walks: mixing cost of trust models",
			TrustModelsContext, RenderTrust, TrustCSV),
		define("X5", "detection", "SybilInfer detection vs trace walk length",
			func(ctx context.Context, cfg Config, obs runner.Observer) ([]DetectionRow, error) {
				return DetectionContext(ctx, DetectionConfig{Config: cfg}, obs)
			}, RenderDetection, DetectionCSV),
		define("X6", "defenses", "Defense comparison: ranking AUC under one attack",
			func(ctx context.Context, cfg Config, obs runner.Observer) ([]DefenseRow, error) {
				return DefenseComparisonContext(ctx, DefenseComparisonConfig{Config: cfg}, obs)
			}, RenderDefenseComparison, DefenseComparisonCSV),
		define("D1", "distmix", "Distributed estimates vs exact mixing time on every dataset",
			DistMixValidationContext, RenderDistMix, DistMixCSV),
		define("D2", "distmix-tradeoff", "Distributed estimation: accuracy vs communication sweep",
			DistMixTradeoffContext, RenderDistMixTradeoff, DistMixTradeoffCSV),
		define("X7", "whanau-lookup", "Whānau lookup success vs table-building walk length",
			WhanauLookupContext, RenderWhanauLookup, WhanauLookupCSV),
		define("E1", "evolve-growth",
			"Mixing-rate evolution under edge accretion: warm vs cold spectral starts",
			EvolveGrowthContext, RenderEvolveGrowth, EvolveGrowthCSV),
		define("E2", "evolve-attack", "Mixing-time degradation as Sybil attack edges accrete",
			EvolveAttackContext, RenderEvolveAttack, EvolveAttackCSV),
	} {
		runner.MustRegister(d)
	}
}
