package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
	"mixtime/internal/textplot"
)

// SybilAttackRow quantifies the §5 trade-off at one walk length:
// longer walks admit more honest nodes but leak more verifier tails
// into the sybil region (each escaped tail is adversary-controlled).
type SybilAttackRow struct {
	W              int
	HonestRate     float64
	SybilRate      float64
	EscapedTails   int
	R              int
	SybilsPerEdge  float64 // protocol-following sybil admissions per attack edge
	EscapesPerEdge float64 // escaped tails per attack edge
}

// The attack experiment's honest region is a BFS sample of at most
// attackNodes nodes of attackDataset. A Barabási–Albert sybil region
// of attackSybils nodes joins it through attackEdges (g) attack edges,
// and SybilLimit runs with route-count multiplier attackR0 over the
// fig8Walks sweep.
const (
	attackDataset = "facebook-A"
	attackNodes   = 1500
	attackSybils  = attackNodes / 4
	attackEdges   = 10
	attackR0      = 3
)

// SybilAttackContext runs the extension experiment: SybilLimit under
// attack across walk lengths, reporting the escape-based sybil bound
// the paper's discussion derives (accepted sybils ≈ t·g as long as
// g < n/w). ctx is checked per walk length.
func SybilAttackContext(ctx context.Context, cfg Config, _ runner.Observer) ([]SybilAttackRow, error) {
	cfg = cfg.WithDefaults()
	honest, err := cappedSample(attackDataset, cfg, attackNodes, 0xa77)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5b1))
	sybilRegion := gen.BarabasiAlbert(attackSybils, 3, rng)
	attack := sybil.NewAttack(honest, sybilRegion, attackEdges, rng)

	var rows []SybilAttackRow
	for _, w := range fig8Walks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: attack cancelled at w=%d: %w", w, err)
		}
		out, err := sybil.RunAttack(attack, 0, sybil.Config{W: w, R0: attackR0, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: attack w=%d: %w", w, err)
		}
		rows = append(rows, SybilAttackRow{
			W:              w,
			HonestRate:     float64(out.HonestAccepted) / float64(out.HonestTotal),
			SybilRate:      float64(out.SybilAccepted) / float64(out.SybilTotal),
			EscapedTails:   out.EscapedTails,
			R:              out.R,
			SybilsPerEdge:  float64(out.SybilAccepted) / attackEdges,
			EscapesPerEdge: float64(out.EscapedTails) / attackEdges,
		})
	}
	return rows, nil
}

// RenderSybilAttack formats the attack sweep as a table.
func RenderSybilAttack(rows []SybilAttackRow) string {
	header := []string{"w", "honest %", "sybil %", "escaped tails", "escapes/g", "sybils/g"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%.1f", 100*r.HonestRate),
			fmt.Sprintf("%.1f", 100*r.SybilRate),
			fmt.Sprintf("%d/%d", r.EscapedTails, r.R),
			fmt.Sprintf("%.2f", r.EscapesPerEdge),
			fmt.Sprintf("%.2f", r.SybilsPerEdge),
		})
	}
	return "SybilLimit under attack: longer walks trade honest admission for tail escapes\n" +
		textplot.Table(header, cells)
}

// ConductanceRow links a dataset's mixing to its community structure:
// the Cheeger interval implied by λ₂ and the conductance of the best
// spectral sweep cut (the Viswanath-et-al. connection of §5).
type ConductanceRow struct {
	Dataset    string
	Lambda2    float64
	CheegerLo  float64
	CheegerHi  float64
	SweepPhi   float64
	SweepNodes int
}

// ConductanceContext runs the community-structure extension over the
// small datasets, with cancellation and progress.
func ConductanceContext(ctx context.Context, cfg Config, obs runner.Observer) ([]ConductanceRow, error) {
	cfg = cfg.WithDefaults()
	small := datasets.Small()
	var rows []ConductanceRow
	for i, d := range small {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: conductance cancelled before %s: %w", d.Name, err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		cut, est, err := spectral.SweepConductanceContext(ctx, g, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		lo, hi := spectral.CheegerBounds(est.Lambda2)
		rows = append(rows, ConductanceRow{
			Dataset:    d.Name,
			Lambda2:    est.Lambda2,
			CheegerLo:  lo,
			CheegerHi:  hi,
			SweepPhi:   cut.Conductance,
			SweepNodes: cut.Size,
		})
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: d.Name,
			Done: i + 1, Total: len(small)})
	}
	return rows, nil
}

// RenderConductance formats the conductance table.
func RenderConductance(rows []ConductanceRow) string {
	header := []string{"dataset", "λ2", "Cheeger lo", "sweep Φ", "Cheeger hi", "cut size"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset,
			fmt.Sprintf("%.5f", r.Lambda2),
			fmt.Sprintf("%.5f", r.CheegerLo),
			fmt.Sprintf("%.5f", r.SweepPhi),
			fmt.Sprintf("%.5f", r.CheegerHi),
			fmt.Sprintf("%d", r.SweepNodes),
		})
	}
	return "Conductance: slow mixing certifies community structure (Cheeger)\n" +
		textplot.Table(header, cells)
}
