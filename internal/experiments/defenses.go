package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"

	"mixtime/internal/centrality"
	"mixtime/internal/community"
	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/sybil"
	"mixtime/internal/textplot"
	"mixtime/internal/whanau"
)

// auc returns the probability that a uniformly random honest node
// outranks a uniformly random sybil under the scores (ties count ½) —
// the ranking-quality metric of Viswanath et al.'s defense analysis.
func auc(scores []float64, isSybil func(graph.NodeID) bool) float64 {
	type item struct {
		score float64
		syb   bool
	}
	items := make([]item, len(scores))
	var nh, ns float64
	for v, s := range scores {
		syb := isSybil(graph.NodeID(v))
		items[v] = item{s, syb}
		if syb {
			ns++
		} else {
			nh++
		}
	}
	if nh == 0 || ns == 0 {
		return 0.5
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score < items[j].score })
	// Rank-sum with midranks for ties.
	var rankSumHonest float64
	i := 0
	for i < len(items) {
		j := i
		for j < len(items) && items[j].score == items[i].score {
			j++
		}
		mid := float64(i+j+1) / 2 // average 1-based rank of the tie group
		for k := i; k < j; k++ {
			if !items[k].syb {
				rankSumHonest += mid
			}
		}
		i = j
	}
	return (rankSumHonest - nh*(nh+1)/2) / (nh * ns)
}

// DefenseRow scores one defense's ranking quality under an attack.
type DefenseRow struct {
	Dataset string
	Defense string
	// AUC: probability an honest node outranks a sybil (1 = perfect,
	// 0.5 = blind).
	AUC float64
	// HonestMean / SybilMean: average score per class (scores are
	// defense-specific; only their ordering matters).
	HonestMean, SybilMean float64
}

// DefenseComparisonConfig parameterizes the comparison.
type DefenseComparisonConfig struct {
	Config
	// Nodes caps the honest region (default 500).
	Nodes int
	// SybilNodes sizes the sybil region (default Nodes/5).
	SybilNodes int
	// AttackEdges is g (default 5).
	AttackEdges int
	// W is the walk length every walk-based defense uses
	// (default 10 — the SybilLimit-era assumption).
	W int
	// Datasets are the honest regions (default facebook-A and
	// physics-1).
	Datasets []string
}

func (c DefenseComparisonConfig) withDefaults() DefenseComparisonConfig {
	c.Config = c.Config.WithDefaults()
	if c.Nodes <= 0 {
		c.Nodes = 500
	}
	if c.SybilNodes <= 0 {
		c.SybilNodes = c.Nodes / 5
	}
	if c.AttackEdges <= 0 {
		c.AttackEdges = 5
	}
	if c.W <= 0 {
		c.W = 10
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"facebook-A", "physics-1"}
	}
	return c
}

// DefenseComparisonContext runs the Viswanath-style head-to-head:
// under the same attack, rank every node by (a) SybilLimit admission,
// (b) SybilInfer marginals, (c) personalized PageRank from the
// verifier (the "connectivity to the trusted node" core Viswanath et
// al. distilled), (d) SybilRank's early-terminated trust propagation,
// and (e) sharing the verifier's Louvain community — and compare
// AUCs. The paper's §2 reports their conclusion that the defenses are
// community detectors at heart; the AUC table makes the equivalence
// measurable. ctx is checked per dataset and each finished dataset
// reports as a KindDatasetDone.
func DefenseComparisonContext(ctx context.Context, cfg DefenseComparisonConfig, obs runner.Observer) ([]DefenseRow, error) {
	cfg = cfg.withDefaults()
	var rows []DefenseRow
	for di, name := range cfg.Datasets {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: defense comparison cancelled before %s: %w", name, err)
		}
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		honest := d.Generate(cfg.Scale, cfg.Seed)
		if honest.NumNodes() > cfg.Nodes {
			rng := rand.New(rand.NewPCG(cfg.Seed, 0xdc1))
			sub, _ := graph.BFSSubgraph(honest, graph.NodeID(rng.IntN(honest.NumNodes())), cfg.Nodes)
			honest, _ = graph.LargestComponent(sub)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xdc2))
		region := gen.BarabasiAlbert(cfg.SybilNodes, 4, rng)
		attack := sybil.NewAttack(honest, region, cfg.AttackEdges, rng)
		g := attack.Combined
		verifier := graph.NodeID(0)
		n := g.NumNodes()

		add := func(defense string, scores []float64) {
			row := DefenseRow{Dataset: name, Defense: defense,
				AUC: auc(scores, attack.IsSybil)}
			var hN, sN float64
			for v, s := range scores {
				if attack.IsSybil(graph.NodeID(v)) {
					row.SybilMean += s
					sN++
				} else {
					row.HonestMean += s
					hN++
				}
			}
			row.HonestMean /= hN
			row.SybilMean /= sN
			rows = append(rows, row)
		}

		// SybilLimit: binary admission score.
		p, err := sybil.NewProtocol(g, sybil.Config{W: cfg.W, R0: 3, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sybillimit: %w", name, err)
		}
		res := p.Verify(verifier, sybil.AllHonest(g, verifier))
		slScore := make([]float64, n)
		slScore[verifier] = 1
		for i, s := range res.Suspects {
			if res.Accepted[i] {
				slScore[s] = 1
			}
		}
		add("sybillimit", slScore)

		// SybilInfer marginals.
		inf, err := sybil.SybilInfer(g, sybil.InferConfig{
			WalksPerNode: 20, W: cfg.W, Samples: 120, Burn: 120, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sybilinfer: %w", name, err)
		}
		add("sybilinfer", inf.HonestProb)

		// Personalized PageRank from the verifier.
		add("ppr", centrality.PersonalizedPageRank(g, verifier, 0.85, 1e-10, 0))

		// SybilRank: early-terminated trust propagation from the
		// verifier (⌈log₂ n⌉ iterations).
		sr, err := sybil.SybilRank(g, []graph.NodeID{verifier}, 0)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sybilrank: %w", name, err)
		}
		add("sybilrank", sr)

		// Louvain community shared with the verifier.
		labels := community.Louvain(g, rand.New(rand.NewPCG(cfg.Seed, 0xdc3)))
		cScore := make([]float64, n)
		for v := range cScore {
			if labels[v] == labels[verifier] {
				cScore[v] = 1
			}
		}
		add("community", cScore)
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: di + 1, Total: len(cfg.Datasets)})
	}
	return rows, nil
}

// RenderDefenseComparison formats the AUC table.
func RenderDefenseComparison(rows []DefenseRow) string {
	header := []string{"dataset", "defense", "AUC", "honest mean", "sybil mean"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.Defense,
			fmt.Sprintf("%.3f", r.AUC),
			fmt.Sprintf("%.4f", r.HonestMean),
			fmt.Sprintf("%.4f", r.SybilMean),
		})
	}
	return "Defense comparison under one attack (Viswanath-style ranking AUC)\n" +
		textplot.Table(header, cells)
}

// WhanauRow2 reports Whānau lookup success at one walk length on one
// dataset.
type WhanauRow2 struct {
	Dataset string
	W       int
	Success float64
}

// WhanauLookupContext sweeps the table-building walk length and
// measures lookup success, with cancellation and progress. It is the
// system-level consequence of the §2 critique: Whānau needs walks at
// the (real) mixing time, not at the assumed O(log n).
func WhanauLookupContext(ctx context.Context, cfg Config, obs runner.Observer) ([]WhanauRow2, error) {
	cfg = cfg.WithDefaults()
	walks := []int{1, 2, 4, 8, 16, 32, 64}
	names := []string{"facebook-A", "physics-1"}
	var rows []WhanauRow2
	for di, name := range names {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		if g.NumNodes() > 1200 {
			rng := rand.New(rand.NewPCG(cfg.Seed, 0x3aa))
			sub, _ := graph.BFSSubgraph(g, graph.NodeID(rng.IntN(g.NumNodes())), 1200)
			g, _ = graph.LargestComponent(sub)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: whanau lookup cancelled at %s: %w", name, err)
		}
		// One walk per sample serves every w: the tables at each length
		// equal a per-length whanau.Build.
		dhts, err := whanau.BuildLengths(g, whanau.Config{Seed: cfg.Seed}, walks)
		if err != nil {
			return nil, fmt.Errorf("experiments: whanau %s: %w", name, err)
		}
		for k, w := range walks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: whanau lookup cancelled at %s w=%d: %w", name, w, err)
			}
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
			rows = append(rows, WhanauRow2{
				Dataset: name,
				W:       w,
				Success: dhts[k].SuccessRate(400, rng),
			})
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: di + 1, Total: len(names)})
	}
	return rows, nil
}

// RenderWhanauLookup formats the lookup sweep.
func RenderWhanauLookup(rows []WhanauRow2) string {
	header := []string{"dataset", "w", "lookup success"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, fmt.Sprintf("%d", r.W), fmt.Sprintf("%.3f", r.Success),
		})
	}
	return "Whānau lookup success vs table-building walk length\n" +
		textplot.Table(header, cells)
}
