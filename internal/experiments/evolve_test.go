package experiments

import (
	"context"
	"testing"
)

// evolveTestConfig is small enough for CI: E1 runs at the 200-node
// floor, E2 on miniature dataset scales.
func evolveTestConfig() Config {
	return Config{Scale: 0.001, Seed: 1, SpectralTol: 1e-7}
}

// TestEvolveGrowthTrajectory pins the E1 acceptance criteria: the
// trajectory qualitatively reproduces "The Evolution of the Mixing
// Rate" (µ falls as random edges accrete), and warm-started power
// iteration converges in measurably fewer λ₂ iterations than the
// cold-start control at the same tolerance, with both solves agreeing
// on the answer.
func TestEvolveGrowthTrajectory(t *testing.T) {
	rows, err := EvolveGrowthContext(context.Background(), evolveTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != e1Epochs {
		t.Fatalf("E1 produced %d epochs, want %d", len(rows), e1Epochs)
	}
	if rows[0].WarmStarted {
		t.Fatal("epoch 0 cannot warm-start")
	}
	warmSum, coldSum := 0, 0
	for i, r := range rows {
		if i > 0 {
			if !r.WarmStarted {
				t.Fatalf("epoch %d not warm-started", r.Epoch)
			}
			if r.Edges <= rows[i-1].Edges {
				t.Fatalf("epoch %d did not grow: %d → %d edges", r.Epoch, rows[i-1].Edges, r.Edges)
			}
			warmSum += r.WarmIters
			coldSum += r.ColdIters
		}
		if !r.Converged {
			t.Fatalf("epoch %d did not converge", r.Epoch)
		}
		// Equal accuracy: warm and cold answers agree well inside the
		// tolerance both ran at.
		if r.MuGap > 1e-6 {
			t.Fatalf("epoch %d: warm/cold µ gap %g exceeds 1e-6", r.Epoch, r.MuGap)
		}
	}
	// The Evolution-of-the-Mixing-Rate qualitative shape: densifying a
	// sparse random graph accelerates mixing.
	first, last := rows[0], rows[len(rows)-1]
	if last.Mu >= first.Mu {
		t.Fatalf("µ did not fall as the graph grew: %v → %v", first.Mu, last.Mu)
	}
	if last.UpperT >= first.UpperT {
		t.Fatalf("mixing-time upper bound did not fall: %v → %v", first.UpperT, last.UpperT)
	}
	// The warm-start cost pin (ISSUE acceptance): across the
	// trajectory, warm starts are measurably cheaper than cold.
	if warmSum >= coldSum {
		t.Fatalf("warm start saved nothing: %d warm vs %d cold λ₂ iterations", warmSum, coldSum)
	}
	t.Logf("E1 warm/cold λ₂ iterations: %d vs %d (%.0f%% saved)",
		warmSum, coldSum, 100*(1-float64(warmSum)/float64(coldSum)))
}

// TestEvolveAttackDegradation checks the E2 shape: a single attack
// edge leaves the combined graph barely connected (µ near 1, far above
// the honest baseline) and accreting attack edges walks µ back down
// toward the baseline.
func TestEvolveAttackDegradation(t *testing.T) {
	rows, err := EvolveAttackContext(context.Background(), evolveTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byDS := map[string][]EvolveAttackRow{}
	for _, r := range rows {
		byDS[r.Dataset] = append(byDS[r.Dataset], r)
	}
	if len(byDS) != len(d2Datasets) {
		t.Fatalf("E2 covered %d datasets, want %d", len(byDS), len(d2Datasets))
	}
	for ds, rs := range byDS {
		if len(rs) < 3 {
			t.Fatalf("%s: only %d epochs", ds, len(rs))
		}
		first, last := rs[0], rs[len(rs)-1]
		if first.AttackEdges != 1 {
			t.Fatalf("%s: first epoch has %d attack edges, want 1", ds, first.AttackEdges)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].AttackEdges <= rs[i-1].AttackEdges {
				t.Fatalf("%s: attack edges did not accrete: %d → %d",
					ds, rs[i-1].AttackEdges, rs[i].AttackEdges)
			}
			if !rs[i].WarmStarted {
				t.Fatalf("%s epoch %d not warm-started", ds, rs[i].Epoch)
			}
		}
		// Degradation: the sparse cut slows mixing far below the honest
		// baseline, and accretion repairs it.
		if first.Mu <= first.HonestMu {
			t.Fatalf("%s: one attack edge did not degrade mixing: µ %v vs honest %v",
				ds, first.Mu, first.HonestMu)
		}
		if last.Mu >= first.Mu {
			t.Fatalf("%s: µ did not recover as attack edges accreted: %v → %v",
				ds, first.Mu, last.Mu)
		}
	}
}
