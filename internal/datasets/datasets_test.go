package datasets

import (
	"context"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/spectral"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("%d datasets, want 15 (Table 1)", len(all))
	}
	if len(Small())+len(Large()) != 15 {
		t.Fatal("Small/Large split loses datasets")
	}
	if len(Large()) != 6 {
		t.Fatalf("%d large datasets, want 6 (DBLP, FB A/B, LJ A/B, Youtube)", len(Large()))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if seen[d.Name] {
			t.Fatalf("duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		if d.PaperNodes <= 0 || d.PaperEdges <= 0 || d.PaperMu <= 0 || d.PaperMu >= 1 {
			t.Fatalf("%s: bad paper metadata %+v", d.Name, d.Meta)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("physics-1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != Trust {
		t.Fatalf("physics-1 kind %q", d.Kind)
	}
	if _, err := ByName("myspace"); err == nil {
		t.Fatal("unknown dataset resolved")
	}
	if len(Names()) != 15 {
		t.Fatal("Names incomplete")
	}
}

func TestGenerateConnectedAndScaled(t *testing.T) {
	for _, d := range All() {
		scale := 0.05
		if d.Large {
			scale = 0.005
		}
		g := d.Generate(scale, 1)
		if g.NumNodes() < 150 {
			t.Errorf("%s: only %d nodes at scale %v", d.Name, g.NumNodes(), scale)
			continue
		}
		if !graph.IsConnected(g) {
			t.Errorf("%s: LCC not connected", d.Name)
		}
		if g.MinDegree() < 1 {
			t.Errorf("%s: isolated vertex survived LCC", d.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d, _ := ByName("enron")
	a := csrDigest(d.Generate(0.02, 9))
	if b := csrDigest(d.Generate(0.02, 9)); a != b {
		t.Fatalf("same seed, different CSR: %s vs %s", a, b)
	}
	if c := csrDigest(d.Generate(0.02, 10)); a == c {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestMinimumScaleClamp(t *testing.T) {
	d, _ := ByName("physics-1")
	g := d.Generate(0.000001, 1)
	if g.NumNodes() < 100 {
		t.Fatalf("clamp failed: %d nodes", g.NumNodes())
	}
}

// TestMixingCharacterOrdering is the calibration contract: at a small
// scale, trust-graph substitutes must mix more slowly (larger µ) than
// online-graph substitutes — the paper's central qualitative finding.
func TestMixingCharacterOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check is slow")
	}
	mu := func(name string, scale float64) float64 {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(scale, 1)
		est, err := spectral.SLEMContext(context.Background(), g, spectral.Options{Tol: 1e-7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%-14s n=%6d m=%8d µ=%.5f (paper %.4f)",
			name, g.NumNodes(), g.NumEdges(), est.Mu, d.PaperMu)
		return est.Mu
	}
	wiki := mu("wiki-vote", 0.3)
	fb := mu("facebook", 0.05)
	phys1 := mu("physics-1", 0.5)
	phys3 := mu("physics-3", 0.3)
	enron := mu("enron", 0.08)
	lj := mu("livejournal-A", 0.003)
	// The paper's qualitative finding: online graphs mix faster than
	// trust graphs; physics-3 and enron sit together near the slow end
	// (both 0.996 in Table 1), so they are not mutually ordered here.
	for name, slow := range map[string]float64{"physics-1": phys1, "physics-3": phys3, "enron": enron} {
		if wiki >= slow || fb >= slow {
			t.Errorf("online faster than %s violated: wiki=%v fb=%v %s=%v", name, wiki, fb, name, slow)
		}
	}
	if lj < 0.99 {
		t.Errorf("livejournal substitute too fast: µ=%v", lj)
	}
	if phys1 < 0.99 {
		t.Errorf("physics substitute too fast: µ=%v", phys1)
	}
}
