package evolve

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/spectral"
)

// grownBase is a ring plus random chords: connected by construction,
// expander-ish enough that power iteration converges briskly, and the
// natural epoch-0 state for edge-accretion trajectories.
func grownBase(n, chords int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e1))
	b := graph.NewBuilder(n + chords)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	added := 0
	for added < chords {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		added++
	}
	return b.Build()
}

// runTrajectory drives one warm-vs-cold growth trajectory and returns
// the per-epoch stats. Deterministic for a given seed.
func runTrajectory(t *testing.T, epochs, perEpoch int, seed uint64) []EpochStat {
	t.Helper()
	mg := NewMutable(grownBase(120, 120, seed))
	tr := NewTracker(mg, Options{Seed: seed, CompareCold: true})
	rng := rand.New(rand.NewPCG(seed, 0x77))
	ctx := context.Background()
	var stats []EpochStat
	for e := 0; e < epochs; e++ {
		if e > 0 {
			g, _ := mg.Snapshot()
			if _, err := mg.Apply(GrowRandom(g, perEpoch, rng)); err != nil {
				t.Fatal(err)
			}
		}
		s, err := tr.Observe(ctx)
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, s)
	}
	return stats
}

// TestWarmStartFewerIterations pins the E1 acceptance criterion at
// the subsystem level: across a growth trajectory, warm-started power
// iteration converges in measurably fewer λ₂-phase iterations than
// the cold control at equal tolerance.
func TestWarmStartFewerIterations(t *testing.T) {
	stats := runTrajectory(t, 6, 25, 1)

	if stats[0].WarmStarted {
		t.Fatal("epoch 0 cannot be warm-started")
	}
	if stats[0].WarmIters != stats[0].ColdIters {
		t.Fatalf("epoch 0 warm path must equal the cold control: %d vs %d",
			stats[0].WarmIters, stats[0].ColdIters)
	}
	warmSum, coldSum := 0, 0
	for _, s := range stats[1:] {
		if !s.WarmStarted {
			t.Fatalf("epoch %d not warm-started", s.Epoch)
		}
		if !s.Converged {
			t.Fatalf("epoch %d did not converge", s.Epoch)
		}
		if d := math.Abs(s.Mu - s.ColdMu); d > 1e-6 {
			t.Fatalf("epoch %d: warm µ %v vs cold µ %v differ by %g — not equal accuracy",
				s.Epoch, s.Mu, s.ColdMu, d)
		}
		warmSum += s.WarmIters
		coldSum += s.ColdIters
	}
	if warmSum >= coldSum {
		t.Fatalf("warm start saved nothing: %d warm vs %d cold λ₂ iterations", warmSum, coldSum)
	}
}

// TestTrajectoryDeterministic is the byte-identity contract: two runs
// of the identical trajectory produce identical stats — eigenvalues,
// iteration counts, bounds, everything.
func TestTrajectoryDeterministic(t *testing.T) {
	a := runTrajectory(t, 4, 20, 7)
	b := runTrajectory(t, 4, 20, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("trajectories diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestWarmColdConvergedSLEMByteIdentical checks warm and cold answers
// agree byte-for-byte at the precision documents report (6 decimals):
// warm start changes where the iteration begins, never what it
// converges to.
func TestWarmColdConvergedSLEMByteIdentical(t *testing.T) {
	for _, s := range runTrajectory(t, 5, 25, 3)[1:] {
		warm := strconv.FormatFloat(s.Mu, 'f', 6, 64)
		cold := strconv.FormatFloat(s.ColdMu, 'f', 6, 64)
		if warm != cold {
			t.Fatalf("epoch %d: converged SLEM differs at document precision: %s vs %s",
				s.Epoch, warm, cold)
		}
	}
}

// TestTrackerBoundsTrajectory checks the per-epoch Sinclair bounds
// move the way Evolution-of-the-Mixing-Rate predicts: accreting
// random edges shrinks µ and with it both mixing-time bounds.
func TestTrackerBoundsTrajectory(t *testing.T) {
	stats := runTrajectory(t, 6, 40, 11)
	first, last := stats[0], stats[len(stats)-1]
	if last.Mu >= first.Mu {
		t.Fatalf("µ did not shrink as the graph densified: %v → %v", first.Mu, last.Mu)
	}
	if last.UpperT >= first.UpperT {
		t.Fatalf("upper bound did not shrink: %v → %v", first.UpperT, last.UpperT)
	}
	for _, s := range stats {
		if s.LowerT < 0 || s.UpperT <= 0 || s.LowerT > s.UpperT {
			t.Fatalf("epoch %d: nonsensical bounds [%v, %v]", s.Epoch, s.LowerT, s.UpperT)
		}
	}
}

// nearBipartite is an even ring with chords that keep it bipartite
// plus a few that break it, so λ_n ≈ −1 and |λ_n| rather than λ₂
// sets µ: the regime where the cold control's borrowed λ_n decides
// ColdMu.
func nearBipartite(n, chords, odd int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x9e1))
	b := graph.NewBuilder(n + chords + odd)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	for added := 0; added < chords+odd; {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || ((u+v)%2 == 1) != (added < chords) {
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		added++
	}
	return b.Build()
}

// ringLattice joins each vertex of an n-ring to its next two
// neighbours: triangles keep λ_n near −0.56 while the long ring keeps
// λ₂ near 1, so λ₂ sets µ.
func ringLattice(n int) *graph.Graph {
	b := graph.NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+2)%n))
	}
	return b.Build()
}

// TestColdControlMatchesFullColdSolve: the cold control runs the λ₂
// phase alone and borrows the warm solve's λ_n, so on every epoch of
// an E1-style growth run its ColdMu and ColdIters must equal those of
// a full cold power solve of the same snapshot, bit for bit. The two
// base graphs cover both ends of the spectrum setting µ.
func TestColdControlMatchesFullColdSolve(t *testing.T) {
	const seed = 5
	ctx := context.Background()
	lambdaNSets := map[bool]int{}
	for _, base := range []*graph.Graph{ringLattice(120), nearBipartite(120, 60, 3, seed)} {
		mg := NewMutable(base)
		tr := NewTracker(mg, Options{Seed: seed, CompareCold: true})
		rng := rand.New(rand.NewPCG(seed, 0xe1))
		for e := 0; e < 5; e++ {
			if e > 0 {
				g, _ := mg.Snapshot()
				if _, err := mg.Apply(GrowRandom(g, 20, rng)); err != nil {
					t.Fatal(err)
				}
			}
			s, err := tr.Observe(ctx)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := mg.Snapshot()
			full, err := spectral.SLEMPowerContext(ctx, g, spectral.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(s.ColdMu) != math.Float64bits(full.Mu) || s.ColdIters != full.Iters2 {
				t.Fatalf("epoch %d: cold control µ %v after %d λ₂ iterations, full cold solve %v after %d",
					e, s.ColdMu, s.ColdIters, full.Mu, full.Iters2)
			}
			lambdaNSets[math.Abs(full.LambdaN) > math.Abs(full.Lambda2)]++
		}
	}
	if lambdaNSets[true] == 0 || lambdaNSets[false] == 0 {
		t.Fatalf("epochs where |λ_n| / λ₂ set µ: %d / %d, want both regimes covered",
			lambdaNSets[true], lambdaNSets[false])
	}
}
