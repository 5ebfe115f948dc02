package experiments

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"mixtime/internal/graph"
)

// tiny is a fast configuration for tests: minimum dataset sizes,
// few sources, short walks.
var tiny = Config{Scale: 0.0002, Seed: 1, Sources: 25, MaxWalk: 120, SpectralTol: 1e-6}

func TestTable1(t *testing.T) {
	rows, err := Table1Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	for _, r := range rows {
		if r.Mu <= 0 || r.Mu > 1 {
			t.Errorf("%s: µ = %v", r.Name, r.Mu)
		}
		if r.Nodes < 100 || r.Edges < 100 {
			t.Errorf("%s: degenerate substitute n=%d m=%d", r.Name, r.Nodes, r.Edges)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "wiki-vote") || !strings.Contains(out, "livejournal-B") {
		t.Fatal("render incomplete")
	}
}

func TestFigure1And2(t *testing.T) {
	small, err := Figure1Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 9 {
		t.Fatalf("%d small curves, want 9", len(small))
	}
	large, err := Figure2Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) != 6 {
		t.Fatalf("%d large curves, want 6", len(large))
	}
	for _, c := range append(small, large...) {
		if len(c.T) != len(c.Eps) {
			t.Fatalf("%s: ragged curve", c.Dataset)
		}
		// The bound grows as ε shrinks.
		for i := 1; i < len(c.T); i++ {
			if c.T[i] < c.T[i-1] {
				t.Fatalf("%s: bound not monotone", c.Dataset)
			}
		}
	}
	out := RenderBoundCurves("Figure 1", small)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "physics-1") {
		t.Fatal("render incomplete")
	}
}

func TestFigure3And4(t *testing.T) {
	rows3, err := Figure3Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 5 walk lengths.
	if len(rows3) != 15 {
		t.Fatalf("%d figure-3 rows", len(rows3))
	}
	for _, r := range rows3 {
		if len(r.Distances) != tiny.Sources {
			t.Fatalf("%s w=%d: %d samples", r.Dataset, r.W, len(r.Distances))
		}
		for _, d := range r.Distances {
			if d < 0 || d > 1 {
				t.Fatalf("%s w=%d: distance %v", r.Dataset, r.W, d)
			}
		}
	}
	rows4, err := Figure4Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 6 walk lengths.
	if len(rows4) != 12 {
		t.Fatalf("%d figure-4 rows", len(rows4))
	}
	out := RenderDistanceCDFs("Figure 3 (physics-1)", rows3[:5])
	if !strings.Contains(out, "w=40") {
		t.Fatal("render incomplete")
	}
}

func TestFigure5(t *testing.T) {
	curves, err := Figure5Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.MeanTV) != len(c.W) || len(c.Q999TV) != len(c.W) || len(c.BoundEps) != len(c.W) {
			t.Fatalf("%s: ragged", c.Dataset)
		}
		for i := range c.W {
			// The worst case dominates the mean.
			if c.Q999TV[i] < c.MeanTV[i]-1e-9 {
				t.Fatalf("%s: q999 %v < mean %v at w=%d", c.Dataset, c.Q999TV[i], c.MeanTV[i], c.W[i])
			}
		}
	}
	if out := RenderFig5(curves[0]); !strings.Contains(out, "lower bound") {
		t.Fatal("render incomplete")
	}
}

func TestFigure6(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.002 // the DBLP substitute needs headroom for 5 trim levels
	rows, err := Figure6Context(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d trim levels", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Nodes > rows[i-1].Nodes {
			t.Fatalf("trimming grew the graph: level %d %d > level %d %d",
				rows[i].Level, rows[i].Nodes, rows[i-1].Level, rows[i-1].Nodes)
		}
	}
	// The paper's finding: trimming improves (reduces) µ overall.
	if rows[4].Mu >= rows[0].Mu {
		t.Fatalf("trim level 5 µ=%v not better than level 1 µ=%v", rows[4].Mu, rows[0].Mu)
	}
	// And costs substantial graph size.
	if float64(rows[4].Nodes) > 0.8*float64(rows[0].Nodes) {
		t.Fatalf("trimming removed too little: %d -> %d", rows[0].Nodes, rows[4].Nodes)
	}
	if out := RenderFig6(rows); !strings.Contains(out, "DBLP 5") {
		t.Fatal("render incomplete")
	}
}

func TestFigure7(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.001
	panels, err := Figure7Context(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets × 3 sizes.
	if len(panels) != 12 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		if p.Nodes < 50 {
			t.Fatalf("%s/%d: %d nodes", p.Dataset, p.SampleSize, p.Nodes)
		}
		for i := range p.W {
			if p.Top10[i] > p.Med20[i]+1e-9 || p.Med20[i] > p.Low10[i]+1e-9 {
				t.Fatalf("%s: bands out of order at w=%d", p.Dataset, p.W[i])
			}
		}
	}
	if out := RenderFig7Panel(panels[0]); !strings.Contains(out, "Figure 7") {
		t.Fatal("render incomplete")
	}
}

func TestFigure8(t *testing.T) {
	curves, err := Figure8Context(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 5 {
		t.Fatalf("%d curves", len(curves))
	}
	last := len(fig8Walks) - 1
	w15 := slices.Index(fig8Walks, 15)
	byName := map[string]Fig8Curve{}
	for _, c := range curves {
		byName[c.Dataset] = c
		if len(c.Accept) != len(fig8Walks) {
			t.Fatalf("%s: %d points", c.Dataset, len(c.Accept))
		}
		// Longer walks admit (weakly) more, modulo small noise.
		if c.Accept[last] < c.Accept[0]-0.1 {
			t.Fatalf("%s: admission fell with longer walks: %v", c.Dataset, c.Accept)
		}
	}
	// The paper's Figure-8 shape: the fast-mixing graph admits most
	// honest nodes by w=15 while the slow trust graphs lag behind —
	// short SybilLimit walks deny service on them.
	fb := byName["facebook-A"].Accept[w15]
	if fb < 0.7 {
		t.Fatalf("facebook-A admits only %v at w=15", fb)
	}
	if slow := byName["physics-3"].Accept[w15]; slow > fb {
		t.Fatalf("slow-mixing physics-3 (%v) outpaced facebook-A (%v)", slow, fb)
	}
	if out := RenderFig8(curves); !strings.Contains(out, "Figure 8") {
		t.Fatal("render incomplete")
	}
}

func TestSybilAttack(t *testing.T) {
	rows, err := SybilAttackContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fig8Walks) {
		t.Fatalf("%d rows", len(rows))
	}
	// Longer walks escape more.
	if rows[len(rows)-1].EscapedTails < rows[0].EscapedTails {
		t.Fatalf("escapes not increasing: %+v", rows)
	}
	for _, r := range rows {
		if r.SybilRate > r.HonestRate+0.1 {
			t.Fatalf("w=%d: sybil rate %v above honest %v", r.W, r.SybilRate, r.HonestRate)
		}
		if math.IsNaN(r.EscapesPerEdge) {
			t.Fatal("NaN escapes per edge")
		}
	}
	if out := RenderSybilAttack(rows); !strings.Contains(out, "escaped tails") {
		t.Fatal("render incomplete")
	}
}

func TestWhanau(t *testing.T) {
	rows, err := WhanauContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 datasets × 6 walk lengths.
	if len(rows) != 18 {
		t.Fatalf("%d rows", len(rows))
	}
	byDS := map[string][]WhanauRow{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
		if r.MeanEdgeTV < 0 || r.MeanEdgeTV > 1+1e-9 {
			t.Fatalf("%s w=%d: edge TV %v", r.Dataset, r.W, r.MeanEdgeTV)
		}
		if r.MaxEdgeTV < r.MeanEdgeTV-1e-9 {
			t.Fatalf("%s w=%d: max %v below mean %v", r.Dataset, r.W, r.MaxEdgeTV, r.MeanEdgeTV)
		}
		// Separation distance dominates TV distance.
		if r.MeanSeparation < r.MeanEdgeTV-1e-9 {
			t.Fatalf("%s w=%d: separation %v < TV %v", r.Dataset, r.W, r.MeanSeparation, r.MeanEdgeTV)
		}
	}
	for ds, rs := range byDS {
		// Tail distributions approach uniform as w grows.
		if rs[len(rs)-1].MeanEdgeTV > rs[0].MeanEdgeTV {
			t.Fatalf("%s: edge TV grew with walk length: %v", ds, rs)
		}
	}
	// The paper's §2 point: at w=80 the slow graphs are still far from
	// uniform while the fast one is close.
	var fb80, phys80 float64
	for _, r := range rows {
		if r.W == 80 && r.Dataset == "facebook" {
			fb80 = r.MeanEdgeTV
		}
		if r.W == 80 && r.Dataset == "physics-1" {
			phys80 = r.MeanEdgeTV
		}
	}
	if phys80 <= fb80 {
		t.Fatalf("physics-1 TV@80 %v not worse than facebook %v", phys80, fb80)
	}
	if out := RenderWhanau(rows); !strings.Contains(out, "separation") {
		t.Fatal("render incomplete")
	}
}

func TestAUC(t *testing.T) {
	isSybil := func(v graph.NodeID) bool { return v >= 2 }
	// Perfect separation: honest {0,1} score high.
	if got := auc([]float64{0.9, 0.8, 0.1, 0.2}, isSybil); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Inverted.
	if got := auc([]float64{0.1, 0.2, 0.9, 0.8}, isSybil); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All tied: 0.5.
	if got := auc([]float64{1, 1, 1, 1}, isSybil); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// One class empty: defined as 0.5.
	if got := auc([]float64{1, 2}, func(graph.NodeID) bool { return false }); got != 0.5 {
		t.Fatalf("degenerate AUC = %v", got)
	}
}

func TestDefenseComparison(t *testing.T) {
	rows, err := DefenseComparisonContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*len(fastSlowPair) {
		t.Fatalf("%d rows, want 5 defenses per dataset", len(rows))
	}
	for _, r := range rows {
		if r.AUC < 0 || r.AUC > 1 {
			t.Fatalf("%s %s AUC %v", r.Dataset, r.Defense, r.AUC)
		}
		// On the fast graph, PPR and community ranking must clearly
		// beat coin flipping. The binary SybilLimit score and the
		// Bayesian marginals are allowed to be weaker: the honest
		// substitute itself has community structure, whose internal
		// cuts depress exactly these defenses (the Viswanath
		// observation the experiment exists to exhibit). The slow
		// physics-1 region defeats every defense, so it has no floor.
		if r.Dataset != "facebook-A" {
			continue
		}
		floor := 0.6
		if r.Defense == "sybillimit" || r.Defense == "sybilinfer" {
			floor = 0.5
		}
		if r.AUC < floor {
			t.Fatalf("%s AUC %v below %v", r.Defense, r.AUC, floor)
		}
	}
	if out := RenderDefenseComparison(rows); !strings.Contains(out, "ppr") {
		t.Fatal("render incomplete")
	}
}

func TestWhanauLookup(t *testing.T) {
	rows, err := WhanauLookupContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 2 datasets × 7 walk lengths
		t.Fatalf("%d rows", len(rows))
	}
	byDS := map[string][]WhanauRow2{}
	for _, r := range rows {
		if r.Success < 0 || r.Success > 1 {
			t.Fatalf("success %v", r.Success)
		}
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	for ds, rs := range byDS {
		if rs[len(rs)-1].Success < rs[0].Success {
			t.Fatalf("%s: success fell with longer walks: %v", ds, rs)
		}
	}
	if out := RenderWhanauLookup(rows); !strings.Contains(out, "lookup") {
		t.Fatal("render incomplete")
	}
}

func TestDetection(t *testing.T) {
	rows, err := DetectionContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 4 walk lengths, facebook-A first.
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.HonestMean < 0 || r.HonestMean > 1 || r.SybilMean < 0 || r.SybilMean > 1 {
			t.Fatalf("means out of range: %+v", r)
		}
		if r.Gap != r.HonestMean-r.SybilMean {
			t.Fatalf("gap inconsistent: %+v", r)
		}
	}
	// On the fast-mixing honest region a modest walk (2⌈ln n⌉)
	// already separates.
	if fb := rows[1]; fb.Dataset != "facebook-A" || fb.Gap < 0.2 {
		t.Fatalf("%s w=%d gap %v, want facebook-A ≥ 0.2", fb.Dataset, fb.W, fb.Gap)
	}
	if out := RenderDetection(rows); !strings.Contains(out, "gap") {
		t.Fatal("render incomplete")
	}
}

func TestTrustModels(t *testing.T) {
	rows, err := TrustModelsContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Hesitation slows the walk by the affine eigenvalue map.
		if r.MuHesitant <= r.MuUniform {
			t.Fatalf("%s: hesitant µ=%v not above plain µ=%v", r.Dataset, r.MuHesitant, r.MuUniform)
		}
		if r.T10Hesitant < r.T10Uniform {
			t.Fatalf("%s: hesitant bound below plain", r.Dataset)
		}
		if r.MuJaccard <= 0 || r.MuJaccard > 1 {
			t.Fatalf("%s: jaccard µ=%v", r.Dataset, r.MuJaccard)
		}
	}
	// On the strict-trust physics graph, similarity weighting slows
	// mixing (bridges are down-weighted).
	for _, r := range rows {
		if r.Dataset == "physics-1" && r.MuJaccard <= r.MuUniform {
			t.Fatalf("physics-1: jaccard µ=%v not above plain µ=%v", r.MuJaccard, r.MuUniform)
		}
	}
	if out := RenderTrust(rows); !strings.Contains(out, "hesitant") {
		t.Fatal("render incomplete")
	}
}

func TestConductance(t *testing.T) {
	rows, err := ConductanceContext(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SweepPhi < r.CheegerLo-1e-6 || r.SweepPhi > r.CheegerHi+1e-6 {
			t.Errorf("%s: sweep Φ=%v outside Cheeger [%v, %v]",
				r.Dataset, r.SweepPhi, r.CheegerLo, r.CheegerHi)
		}
	}
	if out := RenderConductance(rows); !strings.Contains(out, "Cheeger") {
		t.Fatal("render incomplete")
	}
}
