package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/stats"
	"mixtime/internal/textplot"
)

// WhanauRow evaluates the evidence Whānau [12] offered for fast
// mixing: after a walk of length w, how close is the distribution of
// the walk's tail edge to uniform over the 2m directed edges? The
// paper's §2 argues the published convergence was loose (LiveJournal
// far from uniform at w=80) and that the tail distributions were
// never related to the stationary distribution in variation distance;
// this experiment computes those distances exactly: the tail-edge
// distribution from source s is q(u→v) = p_{w−1}(u)/deg(u), so its
// TV distance to uniform and its separation distance follow from the
// node distribution in O(n).
type WhanauRow struct {
	Dataset string
	W       int
	// MeanEdgeTV / MaxEdgeTV: total variation distance between the
	// tail-edge distribution and uniform over directed edges,
	// averaged / maximized over sources.
	MeanEdgeTV, MaxEdgeTV float64
	// MeanSeparation is the separation distance max_e(1 − q(e)·2m)
	// averaged over sources — the metric [12] actually used.
	MeanSeparation float64
}

// whanauWalks are the probe lengths, bracketing the w≈80 Whānau
// reports.
var whanauWalks = []int{10, 20, 40, 80, 160, 320}

// whanauDatasets: a fast online graph and the slow graphs the paper
// calls out.
var whanauDatasets = []string{"facebook", "physics-1", "livejournal-A"}

// Whanau runs the tail-distribution experiment.
func Whanau(cfg Config) ([]WhanauRow, error) {
	return WhanauContext(context.Background(), cfg, nil)
}

// WhanauContext is Whanau with cancellation and progress: sources
// propagate cfg.BlockSize at a time through one blocked CSR pass per
// step, ctx is checked per block (each block costs maxW−1 steps), and
// each finished dataset reports as a KindDatasetDone. Column j of a
// blocked step is byte-identical to a per-source Step, so the rows do
// not depend on the block size.
func WhanauContext(ctx context.Context, cfg Config, obs runner.Observer) ([]WhanauRow, error) {
	cfg = cfg.WithDefaults()
	var rows []WhanauRow
	for di, name := range whanauDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		chain, err := markov.New(g, markov.WithCollector(cfg.Collector))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x77a0))
		sources := markov.SampleSources(g, min(cfg.Sources, 100), rng)

		maxW := whanauWalks[len(whanauWalks)-1]
		// Propagate each block once, reading every column's tail
		// metrics at the probe lengths. Blocks run in source order and
		// columns append in order, so each probe's samples are in
		// source order and Summarize adds them as a per-source loop
		// would.
		type acc struct {
			tv  []float64
			sep []float64
		}
		perW := make(map[int]*acc, len(whanauWalks))
		for _, w := range whanauWalks {
			perW[w] = &acc{}
		}
		n := g.NumNodes()
		width := min(cfg.BlockSize, len(sources))
		pBuf := make([]float64, n*width)
		qBuf := make([]float64, n*width)
		scratch := make([]float64, n*width)
		for lo := 0; lo < len(sources); lo += width {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("experiments: whanau cancelled at %s source %d: %w", name, lo, err)
			}
			block := sources[lo:min(lo+width, len(sources))]
			b := len(block)
			p, q := pBuf[:n*b], qBuf[:n*b]
			clear(p)
			for j, s := range block {
				p[int(s)*b+j] = 1
			}
			for t := 1; t <= maxW; t++ {
				// After this step, p is the node distribution at t−1
				// steps... propagate then read: tail of a length-t walk
				// uses the node distribution after t−1 steps.
				if t > 1 {
					chain.StepBlock(q, p, b, scratch)
					p, q = q, p
				}
				if a, ok := perW[t]; ok {
					for j := range block {
						tv, sep := tailEdgeDistances(g, p, b, j)
						a.tv = append(a.tv, tv)
						a.sep = append(a.sep, sep)
					}
				}
			}
		}
		for _, w := range whanauWalks {
			a := perW[w]
			sum := stats.Summarize(a.tv)
			rows = append(rows, WhanauRow{
				Dataset:        name,
				W:              w,
				MeanEdgeTV:     sum.Mean,
				MaxEdgeTV:      sum.Max,
				MeanSeparation: stats.Summarize(a.sep).Mean,
			})
		}
		runner.Emit(obs, runner.Event{Kind: runner.KindDatasetDone, Dataset: name,
			Done: di + 1, Total: len(whanauDatasets)})
	}
	return rows, nil
}

// tailEdgeDistances computes, from column j of the row-major n×width
// block p of node distributions after w−1 steps, the TV distance of
// the length-w tail-edge distribution to uniform over directed edges,
// and its separation distance.
func tailEdgeDistances(g *graph.Graph, p []float64, width, j int) (tv, sep float64) {
	twoM := float64(2 * g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		deg := float64(g.Degree(graph.NodeID(v)))
		perEdge := p[v*width+j] / deg // probability of each of v's out tails
		diff := perEdge - 1/twoM
		if diff < 0 {
			tv -= deg * diff
		} else {
			tv += deg * diff
		}
		if s := 1 - perEdge*twoM; s > sep {
			sep = s
		}
	}
	return tv / 2, sep
}

// RenderWhanau formats the experiment as a table.
func RenderWhanau(rows []WhanauRow) string {
	header := []string{"dataset", "w", "mean edge-TV", "max edge-TV", "mean separation"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, fmt.Sprintf("%d", r.W),
			fmt.Sprintf("%.4f", r.MeanEdgeTV),
			fmt.Sprintf("%.4f", r.MaxEdgeTV),
			fmt.Sprintf("%.4f", r.MeanSeparation),
		})
	}
	return "Whānau check: distance of walk-tail edge distribution from uniform (paper §2)\n" +
		textplot.Table(header, cells)
}
