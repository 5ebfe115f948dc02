package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"

	"mixtime/internal/api"
	"mixtime/internal/datasets"
	"mixtime/internal/distmix"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/textplot"
)

// d1MaxSources caps the per-dataset source sample of the distributed
// cross-validation: every source costs a full walker flood plus an
// exact propagation reference, so D1 trades source coverage for
// dataset coverage (all fifteen Table-1 graphs). The cap keeps the
// default-scale run in paperfigs territory; raise cfg.Sources below
// the cap to shrink it further.
const d1MaxSources = 8

// DistMixRow is one dataset of experiment D1: the distributed
// walk-distribution estimate beside the exact propagated τ(ε) on the
// same source set, with the communication bill that bought it.
type DistMixRow struct {
	Dataset string        `json:"dataset"`
	Kind    datasets.Kind `json:"kind"`
	Nodes   int           `json:"nodes"`
	Edges   int64         `json:"edges"`
	// Mu is the exact SLEM (the paper's spectral measurement) for
	// reference against both mixing times.
	Mu      float64 `json:"mu"`
	Sources int     `json:"sources"`
	Walks   int     `json:"walks_per_node"`
	Shards  int     `json:"shards"`
	// TauExact is Definition 1 applied to exact propagation over the
	// same sources; TauEst is the distributed estimate. Incomplete
	// values are lower bounds at the walk cap.
	TauExact      int     `json:"tau_exact"`
	ExactComplete bool    `json:"exact_complete"`
	TauEst        int     `json:"tau_est"`
	EstComplete   bool    `json:"est_complete"`
	LocalTau      int     `json:"local_tau"`
	RelErr        float64 `json:"rel_err"`
	// Communication accounting of the estimate (totaled over sources).
	Rounds           int   `json:"rounds"`
	Messages         int64 `json:"messages"`
	OffShardMessages int64 `json:"offshard_messages"`
	OffShardBytes    int64 `json:"offshard_bytes"`
}

// distMixSources draws the source set both the estimator and the
// exact reference measure — the derivation core.MeasureContext uses,
// truncated to the D1 budget.
func distMixSources(g *graph.Graph, cfg Config) []graph.NodeID {
	k := cfg.Sources
	if k > d1MaxSources {
		k = d1MaxSources
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc0fe))
	return markov.SampleSources(g, k, rng)
}

// exactTau propagates the exact distribution from every source on the
// comparison chain (lazy iff bipartite, like every other measurement)
// and applies Definition 1. Each block stops at its last first
// crossing of eps; incomplete sources contribute the walk cap as a
// lower bound (markov.MixingTime).
func exactTau(ctx context.Context, g *graph.Graph, sources []graph.NodeID, eps float64, cfg Config) (int, bool, error) {
	var opts []markov.Option
	if graph.IsBipartite(g) {
		opts = append(opts, markov.Lazy())
	}
	if cfg.Collector != nil {
		opts = append(opts, markov.WithCollector(cfg.Collector))
	}
	chain, err := markov.New(g, opts...)
	if err != nil {
		return 0, false, err
	}
	traces, err := chain.TraceSampleBlockedContext(ctx, sources, cfg.MaxWalk, eps, cfg.BlockSize, cfg.Workers, nil)
	if err != nil {
		return 0, false, err
	}
	tau, complete := markov.MixingTime(traces, eps)
	return tau, complete, nil
}

func relErr(est, exact int) float64 {
	if exact == 0 {
		return 0
	}
	d := float64(est - exact)
	if d < 0 {
		d = -d
	}
	return d / float64(exact)
}

// DistMixValidationContext is experiment D1: on every Table-1 dataset,
// run the simulated distributed estimator (walker floods over
// ShardPlan partitions) and the exact propagated reference on the same
// sampled sources, and report both mixing times, their relative error,
// and the communication cost of the distributed answer. DESIGN.md §11
// documents the tolerance the relative-error column is held to.
func DistMixValidationContext(ctx context.Context, cfg Config, obs runner.Observer) ([]DistMixRow, error) {
	cfg = cfg.WithDefaults()
	eps := api.DefaultEps
	all := datasets.All()
	var rows []DistMixRow
	for i, d := range all {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiments: distmix cancelled before %s: %w", d.Name, err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		est, err := spectral.SLEMContext(ctx, g, spectralOptions(cfg))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		sources := distMixSources(g, cfg)
		texact, exactOK, err := exactTau(ctx, g, sources, eps, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		res, err := distmix.EstimateMixingTime(ctx, g, distmix.Options{
			Shards:       api.DefaultDistShards,
			WalksPerNode: api.DefaultDistWalks,
			MaxRounds:    cfg.MaxWalk,
			Eps:          eps,
			SourceList:   sources,
			Seed:         cfg.Seed,
			Collector:    cfg.Collector,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, err)
		}
		rows = append(rows, DistMixRow{
			Dataset:          d.Name,
			Kind:             d.Kind,
			Nodes:            g.NumNodes(),
			Edges:            g.NumEdges(),
			Mu:               est.Mu,
			Sources:          len(sources),
			Walks:            res.WalksPerNode,
			Shards:           res.Shards,
			TauExact:         texact,
			ExactComplete:    exactOK,
			TauEst:           res.Tau,
			EstComplete:      res.Complete,
			LocalTau:         res.LocalTau,
			RelErr:           relErr(res.Tau, texact),
			Rounds:           res.Stats.Rounds,
			Messages:         res.Stats.Messages,
			OffShardMessages: res.Stats.OffShardMessages,
			OffShardBytes:    res.Stats.OffShardBytes,
		})
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: d.Name,
			Stage: "distmix", Done: i + 1, Total: len(all), Iterations: res.Stats.Rounds})
	}
	return rows, nil
}

// RenderDistMix formats the D1 cross-validation table.
func RenderDistMix(rows []DistMixRow) string {
	header := []string{"dataset", "n", "µ", "τ exact", "τ̂ dist", "ζ̂ local", "rel err", "rounds", "msgs", "off-shard"}
	var cells [][]string
	for _, r := range rows {
		te := strconv.Itoa(r.TauExact)
		if !r.ExactComplete {
			te = ">" + te
		}
		td := strconv.Itoa(r.TauEst)
		if !r.EstComplete {
			td = ">" + td
		}
		cells = append(cells, []string{
			r.Dataset, strconv.Itoa(r.Nodes), fmt.Sprintf("%.4f", r.Mu),
			te, td, strconv.Itoa(r.LocalTau), fmt.Sprintf("%.2f", r.RelErr),
			strconv.Itoa(r.Rounds), strconv.FormatInt(r.Messages, 10),
			strconv.FormatInt(r.OffShardMessages, 10),
		})
	}
	return "D1: distributed walk estimates vs exact propagation (every Table-1 dataset)\n" +
		textplot.Table(header, cells)
}

// DistMixCSV writes the D1 rows.
func DistMixCSV(w io.Writer, rows []DistMixRow) error {
	header := []string{"dataset", "kind", "nodes", "edges", "mu", "sources", "walks_per_node",
		"shards", "tau_exact", "exact_complete", "tau_est", "est_complete", "local_tau",
		"rel_err", "rounds", "messages", "offshard_messages", "offshard_bytes"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, string(r.Kind), d(r.Nodes), strconv.FormatInt(r.Edges, 10), f(r.Mu),
			d(r.Sources), d(r.Walks), d(r.Shards), d(r.TauExact),
			strconv.FormatBool(r.ExactComplete), d(r.TauEst),
			strconv.FormatBool(r.EstComplete), d(r.LocalTau), f(r.RelErr), d(r.Rounds),
			strconv.FormatInt(r.Messages, 10), strconv.FormatInt(r.OffShardMessages, 10),
			strconv.FormatInt(r.OffShardBytes, 10),
		})
	}
	return writeCSV(w, header, out)
}

// d2Datasets are the tradeoff sweep's graphs: one slow mixer (the
// paper's hardest small graph) and one fast online graph, so the
// sweep shows both regimes.
var d2Datasets = []string{"physics-1", "wiki-vote"}

// TradeoffRow is one configuration of experiment D2: accuracy and
// communication cost of the distributed estimate as walker count,
// shard count, and the round budget move.
type TradeoffRow struct {
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Walks   int    `json:"walks_per_node"`
	Shards  int    `json:"shards"`
	// MaxRounds is the superstep budget of this configuration.
	MaxRounds   int     `json:"max_rounds"`
	TauExact    int     `json:"tau_exact"`
	TauEst      int     `json:"tau_est"`
	EstComplete bool    `json:"est_complete"`
	RelErr      float64 `json:"rel_err"`
	// NoiseFloor shows why accuracy moves with the walker count.
	NoiseFloor       float64 `json:"noise_floor"`
	Rounds           int     `json:"rounds"`
	Messages         int64   `json:"messages"`
	OffShardMessages int64   `json:"offshard_messages"`
	OffShardBytes    int64   `json:"offshard_bytes"`
}

// DistMixTradeoffContext is experiment D2: sweep the distributed
// estimator's walker count and shard count (and a truncated round
// budget) on a slow and a fast mixer, reporting accuracy against the
// exact answer beside the message bill. The shard axis moves only the
// off-shard traffic — never the estimate — which the rows exhibit
// directly; the walker axis trades messages for noise floor.
func DistMixTradeoffContext(ctx context.Context, cfg Config, obs runner.Observer) ([]TradeoffRow, error) {
	cfg = cfg.WithDefaults()
	eps := api.DefaultEps
	walksSweep := []int{4, 16, 64}
	shardSweep := []int{2, 8, 32}
	var rows []TradeoffRow
	for i, name := range d2Datasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: distmix tradeoff: %w", err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		sources := distMixSources(g, cfg)
		texact, _, err := exactTau(ctx, g, sources, eps, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		run := func(walks, shards, maxRounds int) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("experiments: distmix tradeoff cancelled at %s: %w", name, err)
			}
			res, err := distmix.EstimateMixingTime(ctx, g, distmix.Options{
				Shards:       shards,
				WalksPerNode: walks,
				MaxRounds:    maxRounds,
				Eps:          eps,
				SourceList:   sources,
				Seed:         cfg.Seed,
				Collector:    cfg.Collector,
			})
			if err != nil {
				return fmt.Errorf("experiments: %s: %w", name, err)
			}
			rows = append(rows, TradeoffRow{
				Dataset:          name,
				Nodes:            g.NumNodes(),
				Walks:            walks,
				Shards:           res.Shards,
				MaxRounds:        maxRounds,
				TauExact:         texact,
				TauEst:           res.Tau,
				EstComplete:      res.Complete,
				RelErr:           relErr(res.Tau, texact),
				NoiseFloor:       res.NoiseFloor,
				Rounds:           res.Stats.Rounds,
				Messages:         res.Stats.Messages,
				OffShardMessages: res.Stats.OffShardMessages,
				OffShardBytes:    res.Stats.OffShardBytes,
			})
			return nil
		}
		for _, walks := range walksSweep {
			for _, shards := range shardSweep {
				if err := run(walks, shards, cfg.MaxWalk); err != nil {
					return nil, err
				}
			}
		}
		// The truncation axis: a round budget below τ turns the estimate
		// into a visible lower bound.
		for _, budget := range []int{cfg.MaxWalk / 8, cfg.MaxWalk / 2} {
			if budget < 1 {
				budget = 1
			}
			if err := run(api.DefaultDistWalks, api.DefaultDistShards, budget); err != nil {
				return nil, err
			}
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Stage: "distmix", Done: i + 1, Total: len(d2Datasets)})
	}
	return rows, nil
}

// RenderDistMixTradeoff formats the D2 sweep.
func RenderDistMixTradeoff(rows []TradeoffRow) string {
	header := []string{"dataset", "walks/node", "shards", "budget", "τ exact", "τ̂", "rel err", "floor", "msgs", "off-shard"}
	var cells [][]string
	for _, r := range rows {
		td := strconv.Itoa(r.TauEst)
		if !r.EstComplete {
			td = ">" + td
		}
		cells = append(cells, []string{
			r.Dataset, strconv.Itoa(r.Walks), strconv.Itoa(r.Shards),
			strconv.Itoa(r.MaxRounds), strconv.Itoa(r.TauExact), td,
			fmt.Sprintf("%.2f", r.RelErr), fmt.Sprintf("%.3f", r.NoiseFloor),
			strconv.FormatInt(r.Messages, 10), strconv.FormatInt(r.OffShardMessages, 10),
		})
	}
	return "D2: accuracy vs communication — walker, shard and round-budget sweep\n" +
		textplot.Table(header, cells)
}

// DistMixTradeoffCSV writes the D2 rows.
func DistMixTradeoffCSV(w io.Writer, rows []TradeoffRow) error {
	header := []string{"dataset", "nodes", "walks_per_node", "shards", "max_rounds",
		"tau_exact", "tau_est", "est_complete", "rel_err", "noise_floor", "rounds",
		"messages", "offshard_messages", "offshard_bytes"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, d(r.Nodes), d(r.Walks), d(r.Shards), d(r.MaxRounds),
			d(r.TauExact), d(r.TauEst), strconv.FormatBool(r.EstComplete),
			f(r.RelErr), f(r.NoiseFloor), d(r.Rounds),
			strconv.FormatInt(r.Messages, 10), strconv.FormatInt(r.OffShardMessages, 10),
			strconv.FormatInt(r.OffShardBytes, 10),
		})
	}
	return writeCSV(w, header, out)
}
