package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/markov"
	"mixtime/internal/stats"
)

// whanauPerSource is the reference X3 driver: every source propagates
// alone through Chain.Step, and its tail metrics append in source
// order at each probe length.
func whanauPerSource(t *testing.T, cfg Config) []WhanauRow {
	t.Helper()
	cfg = cfg.WithDefaults()
	var rows []WhanauRow
	for _, name := range whanauDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(cfg.Scale, cfg.Seed)
		chain, err := markov.New(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x77a0))
		sources := markov.SampleSources(g, min(cfg.Sources, 100), rng)
		maxW := whanauWalks[len(whanauWalks)-1]
		tvs := map[int][]float64{}
		seps := map[int][]float64{}
		n := g.NumNodes()
		scratch := make([]float64, n)
		for _, s := range sources {
			p := make([]float64, n)
			q := make([]float64, n)
			p[s] = 1
			for w := 1; w <= maxW; w++ {
				if w > 1 {
					chain.Step(q, p, scratch)
					p, q = q, p
				}
				if slices.Contains(whanauWalks, w) {
					tv, sep := tailEdgeDistances(g, p, 1, 0)
					tvs[w] = append(tvs[w], tv)
					seps[w] = append(seps[w], sep)
				}
			}
		}
		for _, w := range whanauWalks {
			sum := stats.Summarize(tvs[w])
			rows = append(rows, WhanauRow{Dataset: name, W: w, MeanEdgeTV: sum.Mean,
				MaxEdgeTV: sum.Max, MeanSeparation: stats.Summarize(seps[w]).Mean})
		}
	}
	return rows
}

// TestWhanauBlockedMatchesPerSource pins the blocked X3 driver to the
// per-source reference bit for bit. The source counts cover a lone
// column (1), a 2-wide block, a 4+2+1 register-group decomposition
// (7), a full block plus a 1-wide tail (9), and six full blocks plus
// a 2-wide tail (50); block sizes 1 and 3 cover the -block knob.
func TestWhanauBlockedMatchesPerSource(t *testing.T) {
	cases := []struct{ sources, block int }{
		{1, 0}, {2, 0}, {7, 0}, {9, 0}, {50, 0}, {9, 1}, {9, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("sources=%d/block=%d", tc.sources, tc.block), func(t *testing.T) {
			cfg := tiny
			cfg.Sources, cfg.BlockSize = tc.sources, tc.block
			got, err := WhanauContext(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := whanauPerSource(t, cfg)
			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i, g := range got {
				w := want[i]
				if g.Dataset != w.Dataset || g.W != w.W ||
					math.Float64bits(g.MeanEdgeTV) != math.Float64bits(w.MeanEdgeTV) ||
					math.Float64bits(g.MaxEdgeTV) != math.Float64bits(w.MaxEdgeTV) ||
					math.Float64bits(g.MeanSeparation) != math.Float64bits(w.MeanSeparation) {
					t.Errorf("row %d: blocked %+v, per-source %+v", i, g, w)
				}
			}
		})
	}
}
