package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
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

// SybilAttackConfig parameterizes the attack experiment.
type SybilAttackConfig struct {
	Config
	// Dataset names the honest region (default "facebook-A").
	Dataset string
	// Nodes caps the honest region (default 1500).
	Nodes int
	// SybilNodes sizes the sybil region (default Nodes/4).
	SybilNodes int
	// AttackEdges is g (default 10).
	AttackEdges int
	// R0 is the SybilLimit multiplier (default 3).
	R0 float64
	// Walks is the sweep (default fig8Walks).
	Walks []int
}

func (c SybilAttackConfig) withDefaults() SybilAttackConfig {
	c.Config = c.Config.WithDefaults()
	if c.Dataset == "" {
		c.Dataset = "facebook-A"
	}
	if c.Nodes <= 0 {
		c.Nodes = 1500
	}
	if c.SybilNodes <= 0 {
		c.SybilNodes = c.Nodes / 4
	}
	if c.AttackEdges <= 0 {
		c.AttackEdges = 10
	}
	if c.R0 <= 0 {
		c.R0 = 3
	}
	if len(c.Walks) == 0 {
		c.Walks = fig8Walks
	}
	return c
}

// SybilAttackContext runs the extension experiment: SybilLimit under
// attack across walk lengths, reporting the escape-based sybil bound
// the paper's discussion derives (accepted sybils ≈ t·g as long as
// g < n/w). ctx is checked per walk length and each finished walk
// length reports as a KindStageProgress.
func SybilAttackContext(ctx context.Context, cfg SybilAttackConfig, obs runner.Observer) ([]SybilAttackRow, error) {
	cfg = cfg.withDefaults()
	d, err := datasets.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	honest := d.Generate(cfg.Scale, cfg.Seed)
	if honest.NumNodes() > cfg.Nodes {
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xa77))
		sub, _ := graph.BFSSubgraph(honest, graph.NodeID(rng.IntN(honest.NumNodes())), cfg.Nodes)
		honest, _ = graph.LargestComponent(sub)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5b1))
	sybilRegion := gen.BarabasiAlbert(cfg.SybilNodes, 3, rng)
	attack := sybil.NewAttack(honest, sybilRegion, cfg.AttackEdges, rng)

	var rows []SybilAttackRow
	for i, w := range cfg.Walks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: attack cancelled at w=%d: %w", w, err)
		}
		out, err := sybil.RunAttack(attack, 0, sybil.Config{W: w, R0: cfg.R0, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: attack w=%d: %w", w, err)
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindStageProgress, Dataset: cfg.Dataset,
			Stage: "walks", Done: i + 1, Total: len(cfg.Walks)})
		rows = append(rows, SybilAttackRow{
			W:              w,
			HonestRate:     float64(out.HonestAccepted) / float64(out.HonestTotal),
			SybilRate:      float64(out.SybilAccepted) / float64(out.SybilTotal),
			EscapedTails:   out.EscapedTails,
			R:              out.R,
			SybilsPerEdge:  float64(out.SybilAccepted) / float64(cfg.AttackEdges),
			EscapesPerEdge: float64(out.EscapedTails) / float64(cfg.AttackEdges),
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
			Done: i + 1, Total: len(small), Iterations: est.Iterations})
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
