package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/runner"
	"mixtime/internal/sybil"
	"mixtime/internal/textplot"
)

// DetectionRow measures SybilInfer's detection quality on one honest
// region at one trace walk length: the gap between the mean posterior
// honest-probability of honest nodes and of sybil nodes (0 = blind,
// 1 = perfect separation), plus a threshold classification at 0.5.
type DetectionRow struct {
	Dataset string
	W       int
	// HonestMean/SybilMean: average marginal per class.
	HonestMean, SybilMean float64
	// Gap = HonestMean − SybilMean.
	Gap float64
	// FalseReject: honest nodes classified sybil at threshold 0.5;
	// FalseAccept: sybils classified honest.
	FalseReject, FalseAccept int
}

// fastSlowPair is the fast/slow contrast X5, X6 and X7 run on: the
// fast-mixing facebook-A and the slow-mixing physics-1.
var fastSlowPair = []string{"facebook-A", "physics-1"}

// SybilInfer detection runs on BFS samples of at most detectNodes
// nodes, joined to a Barabási–Albert sybil region of detectSybils
// nodes through detectEdges (g) attack edges. The trace walk lengths
// are 1, 2, 4 and 8 times ⌈ln n⌉ of the combined graph.
const (
	detectNodes  = 600
	detectSybils = detectNodes / 5
	detectEdges  = 4
)

// DetectionContext runs SybilInfer across trace walk lengths on fast-
// and slow-mixing honest regions. The paper's implication made
// concrete: with the O(log n) traces the protocol assumes, detection
// on the slow trust graph is far weaker than on the fast online
// graph, and it recovers only as the walks approach the real mixing
// time. ctx is checked per (dataset, walk length) and each finished
// dataset reports as a KindDatasetDone.
func DetectionContext(ctx context.Context, cfg Config, obs runner.Observer) ([]DetectionRow, error) {
	cfg = cfg.WithDefaults()
	var rows []DetectionRow
	for di, name := range fastSlowPair {
		honest, err := cappedSample(name, cfg, detectNodes, 0xde7)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0xde8))
		region := gen.BarabasiAlbert(detectSybils, 4, rng)
		attack := sybil.NewAttack(honest, region, detectEdges, rng)

		base := int(math.Ceil(math.Log(float64(attack.Combined.NumNodes()))))
		for _, w := range []int{base, 2 * base, 4 * base, 8 * base} {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: detection cancelled at %s w=%d: %w", name, w, err)
			}
			res, err := sybil.SybilInfer(attack.Combined, sybil.InferConfig{
				WalksPerNode: 15,
				W:            w,
				Samples:      80,
				Burn:         40,
				Seed:         cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: detection %s w=%d: %w", name, w, err)
			}
			row := DetectionRow{Dataset: name, W: w}
			var hN, sN int
			for v, p := range res.HonestProb {
				if attack.IsSybil(graph.NodeID(v)) {
					row.SybilMean += p
					sN++
					if p >= 0.5 {
						row.FalseAccept++
					}
				} else {
					row.HonestMean += p
					hN++
					if p < 0.5 {
						row.FalseReject++
					}
				}
			}
			row.HonestMean /= float64(hN)
			row.SybilMean /= float64(sN)
			row.Gap = row.HonestMean - row.SybilMean
			rows = append(rows, row)
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: di + 1, Total: len(fastSlowPair)})
	}
	return rows, nil
}

// RenderDetection formats the experiment.
func RenderDetection(rows []DetectionRow) string {
	header := []string{"dataset", "w", "honest mean", "sybil mean", "gap", "false rej", "false acc"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%.3f", r.HonestMean),
			fmt.Sprintf("%.3f", r.SybilMean),
			fmt.Sprintf("%.3f", r.Gap),
			fmt.Sprintf("%d", r.FalseReject),
			fmt.Sprintf("%d", r.FalseAccept),
		})
	}
	return "SybilInfer detection vs trace walk length (fast vs slow honest region)\n" +
		textplot.Table(header, cells)
}
