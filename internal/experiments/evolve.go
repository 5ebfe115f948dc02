package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"

	"mixtime/internal/datasets"
	"mixtime/internal/evolve"
	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
	"mixtime/internal/textplot"
)

// e1Epochs is the number of growth epochs E1 observes; each epoch
// accretes e1 per-epoch edges (n/4), so the trajectory runs from
// average degree 3 (ring + n/2 chords) to ~9 — the regime where
// "The Evolution of the Mixing Rate" predicts the mixing rate falls
// fastest.
const e1Epochs = 12

// EvolveGrowthRow is one epoch of experiment E1: the SLEM/mixing-time
// trajectory of a random graph growing edge by edge, with the
// warm-start vs cold-start iteration counts as the accuracy/cost
// column (both solves run at the identical tolerance; MuGap shows the
// answers agree).
type EvolveGrowthRow struct {
	Epoch   int     `json:"epoch"`
	Version uint64  `json:"version"`
	Nodes   int     `json:"nodes"`
	Edges   int64   `json:"edges"`
	AvgDeg  float64 `json:"avg_deg"`
	Mu      float64 `json:"mu"`
	Lambda2 float64 `json:"lambda2"`
	// Converged reports the warm solve; WarmStarted is false only on
	// epoch 0 (no previous eigenvector exists yet).
	Converged   bool `json:"converged"`
	WarmStarted bool `json:"warm_started"`
	// WarmIters and ColdIters are the λ₂-phase power iteration counts
	// of the warm solve and the cold control at equal tolerance; MuGap
	// is |warm µ − cold µ|, the equal-accuracy evidence.
	WarmIters int     `json:"warm_iters"`
	ColdIters int     `json:"cold_iters"`
	MuGap     float64 `json:"mu_gap"`
	LowerT    float64 `json:"lower_t"`
	UpperT    float64 `json:"upper_t"`
}

// e1Base is the epoch-0 graph: a ring on n nodes plus n/2 random
// chords — connected by construction at average degree 3, the sparse
// starting point of the growth trajectory.
func e1Base(n int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0xe101))
	b := graph.NewBuilder(n + n/2)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for added := 0; added < n/2; added++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build()
}

// EvolveGrowthContext is experiment E1: grow a random graph edge by
// edge through the evolve mutation API and track the SLEM trajectory
// with warm-started power iteration, running a cold-start control at
// the same tolerance each epoch so the warm/cold iteration columns
// are an equal-accuracy cost comparison. The qualitative trajectory —
// µ falling monotonically-in-trend as random edges accrete —
// reproduces "The Evolution of the Mixing Rate" (Fountoulakis et al.).
func EvolveGrowthContext(ctx context.Context, cfg Config, obs runner.Observer) ([]EvolveGrowthRow, error) {
	cfg = cfg.WithDefaults()
	n := int(100_000 * cfg.Scale)
	if n < 200 {
		n = 200
	}
	perEpoch := n / 4

	mg := evolve.NewMutable(e1Base(n, cfg.Seed))
	tr := evolve.NewTracker(mg, evolve.Options{
		Tol:         cfg.SpectralTol,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		CompareCold: true,
		Collector:   cfg.Collector,
	})
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xe1))

	rows := make([]EvolveGrowthRow, 0, e1Epochs)
	for e := 0; e < e1Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: evolve-growth cancelled at epoch %d: %w", e, err)
		}
		if e > 0 {
			g, _ := mg.Snapshot()
			if _, err := mg.Apply(evolve.GrowRandom(g, perEpoch, rng)); err != nil {
				return nil, fmt.Errorf("experiments: evolve-growth epoch %d: %w", e, err)
			}
		}
		s, err := tr.Observe(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: evolve-growth: %w", err)
		}
		gap := s.Mu - s.ColdMu
		if gap < 0 {
			gap = -gap
		}
		rows = append(rows, EvolveGrowthRow{
			Epoch:       s.Epoch,
			Version:     uint64(s.Version),
			Nodes:       s.Nodes,
			Edges:       s.Edges,
			AvgDeg:      2 * float64(s.Edges) / float64(s.Nodes),
			Mu:          s.Mu,
			Lambda2:     s.Lambda2,
			Converged:   s.Converged,
			WarmStarted: s.WarmStarted,
			WarmIters:   s.WarmIters,
			ColdIters:   s.ColdIters,
			MuGap:       gap,
			LowerT:      s.LowerT,
			UpperT:      s.UpperT,
		})
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: "evolve-growth",
			Done: e + 1, Total: e1Epochs})
	}
	return rows, nil
}

// RenderEvolveGrowth formats the E1 trajectory table.
func RenderEvolveGrowth(rows []EvolveGrowthRow) string {
	header := []string{"epoch", "edges", "avg deg", "µ", "warm it", "cold it", "saved", "lower T", "upper T"}
	var cells [][]string
	for _, r := range rows {
		saved := "-"
		if r.WarmStarted && r.ColdIters > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-float64(r.WarmIters)/float64(r.ColdIters)))
		}
		cells = append(cells, []string{
			d(r.Epoch), strconv.FormatInt(r.Edges, 10), fmt.Sprintf("%.2f", r.AvgDeg),
			fmt.Sprintf("%.6f", r.Mu), d(r.WarmIters), d(r.ColdIters), saved,
			fmt.Sprintf("%.1f", r.LowerT), fmt.Sprintf("%.1f", r.UpperT),
		})
	}
	return "E1: mixing-rate evolution under edge accretion (warm vs cold start at equal tolerance)\n" +
		textplot.Table(header, cells)
}

// EvolveGrowthCSV writes the E1 rows.
func EvolveGrowthCSV(w io.Writer, rows []EvolveGrowthRow) error {
	header := []string{"epoch", "version", "nodes", "edges", "avg_deg", "mu", "lambda2",
		"converged", "warm_started", "warm_iters", "cold_iters", "mu_gap", "lower_t", "upper_t"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			d(r.Epoch), strconv.FormatUint(r.Version, 10), d(r.Nodes),
			strconv.FormatInt(r.Edges, 10), f(r.AvgDeg), f(r.Mu), f(r.Lambda2),
			strconv.FormatBool(r.Converged), strconv.FormatBool(r.WarmStarted),
			d(r.WarmIters), d(r.ColdIters), f(r.MuGap), f(r.LowerT), f(r.UpperT),
		})
	}
	return writeCSV(w, header, out)
}

// EvolveAttackRow is one epoch of experiment E2: the mixing-time
// degradation of a Table-1 graph as Sybil attack edges accrete onto a
// parasitic copy of itself. Mu is the combined graph's SLEM (warm
// chain); HonestMu is the honest region's baseline, constant across
// the trajectory — the gap between them is the degradation the
// paper's §5 argument predicts a sparse attack cut must cause.
type EvolveAttackRow struct {
	Dataset     string  `json:"dataset"`
	Epoch       int     `json:"epoch"`
	HonestNodes int     `json:"honest_nodes"`
	Nodes       int     `json:"nodes"`
	Edges       int64   `json:"edges"`
	AttackEdges int     `json:"attack_edges"`
	Mu          float64 `json:"mu"`
	HonestMu    float64 `json:"honest_mu"`
	Converged   bool    `json:"converged"`
	WarmStarted bool    `json:"warm_started"`
	WarmIters   int     `json:"warm_iters"`
	LowerT      float64 `json:"lower_t"`
	UpperT      float64 `json:"upper_t"`
}

// EvolveAttackContext is experiment E2: wire a Sybil copy of each
// d2Datasets graph onto its honest region with a single attack edge,
// then let attack edges accrete through evolve.AttackEdges in doubling
// batches, observing the SLEM/mixing-time trajectory with the
// warm-started tracker after every accretion epoch. With one attack
// edge the combined graph is a near-disconnected two-community graph
// (µ ≈ 1, mixing time enormous vs the honest baseline); each doubling
// widens the cut and walks the degradation back toward the baseline.
func EvolveAttackContext(ctx context.Context, cfg Config, obs runner.Observer) ([]EvolveAttackRow, error) {
	cfg = cfg.WithDefaults()
	var rows []EvolveAttackRow
	for di, name := range d2Datasets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: evolve-attack cancelled before %s: %w", name, err)
		}
		ds, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: evolve-attack: %w", err)
		}
		honest := ds.Generate(cfg.Scale, cfg.Seed)
		base, err := spectral.SLEMContext(ctx, honest, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: evolve-attack %s baseline: %w", name, err)
		}

		// The attack region is a relabeled copy of the honest graph —
		// the strongest parasite (§5): identical mixing properties, so
		// every slowdown is attributable to the cut, not the region.
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xa77c+uint64(di)))
		atk := sybil.NewAttack(honest, honest, 1, rng)
		mg := evolve.NewMutable(atk.Combined)
		tr := evolve.NewTracker(mg, evolve.Options{
			Tol:       cfg.SpectralTol,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Collector: cfg.Collector,
		})

		// Doubling accretion targets 1, 2, 4, … up to ~an eighth of the
		// honest edge count: beyond that the cut stops being sparse and
		// the trajectory flattens onto the baseline.
		maxAttack := int(honest.NumEdges() / 8)
		if maxAttack < 16 {
			maxAttack = 16
		}
		var targets []int
		for t := 1; t <= maxAttack; t *= 2 {
			targets = append(targets, t)
		}

		current := atk.AttackEdges
		for ei, target := range targets {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: evolve-attack cancelled at %s epoch %d: %w", name, ei, err)
			}
			if k := target - current; k > 0 {
				g, _ := mg.Snapshot()
				res, err := mg.Apply(evolve.AttackEdges(g, honest.NumNodes(), k, rng))
				if err != nil {
					return nil, fmt.Errorf("experiments: evolve-attack %s epoch %d: %w", name, ei, err)
				}
				current += res.Inserted
			}
			s, err := tr.Observe(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiments: evolve-attack %s: %w", name, err)
			}
			rows = append(rows, EvolveAttackRow{
				Dataset:     name,
				Epoch:       s.Epoch,
				HonestNodes: honest.NumNodes(),
				Nodes:       s.Nodes,
				Edges:       s.Edges,
				AttackEdges: current,
				Mu:          s.Mu,
				HonestMu:    base.Mu,
				Converged:   s.Converged,
				WarmStarted: s.WarmStarted,
				WarmIters:   s.WarmIters,
				LowerT:      s.LowerT,
				UpperT:      s.UpperT,
			})
			runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
				Done: ei + 1, Total: len(targets)})
		}
	}
	return rows, nil
}

// RenderEvolveAttack formats the E2 degradation table.
func RenderEvolveAttack(rows []EvolveAttackRow) string {
	header := []string{"dataset", "g", "µ", "µ honest", "lower T", "upper T", "warm it"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, d(r.AttackEdges), fmt.Sprintf("%.6f", r.Mu),
			fmt.Sprintf("%.6f", r.HonestMu), fmt.Sprintf("%.1f", r.LowerT),
			fmt.Sprintf("%.1f", r.UpperT), d(r.WarmIters),
		})
	}
	return "E2: mixing-time degradation as Sybil attack edges accrete (g doubles per epoch)\n" +
		textplot.Table(header, cells)
}

// EvolveAttackCSV writes the E2 rows.
func EvolveAttackCSV(w io.Writer, rows []EvolveAttackRow) error {
	header := []string{"dataset", "epoch", "honest_nodes", "nodes", "edges", "attack_edges",
		"mu", "honest_mu", "converged", "warm_started", "warm_iters", "lower_t", "upper_t"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, d(r.Epoch), d(r.HonestNodes), d(r.Nodes),
			strconv.FormatInt(r.Edges, 10), d(r.AttackEdges), f(r.Mu), f(r.HonestMu),
			strconv.FormatBool(r.Converged), strconv.FormatBool(r.WarmStarted),
			d(r.WarmIters), f(r.LowerT), f(r.UpperT),
		})
	}
	return writeCSV(w, header, out)
}
