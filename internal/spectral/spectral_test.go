package spectral

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n * (n - 1) / 2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build()
}

func star(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	return b.Build()
}

// hypercube returns the d-dimensional hypercube Q_d.
func hypercube(d int) *graph.Graph {
	n := 1 << d
	b := graph.NewBuilder(n * d / 2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID(v^(1<<bit)))
		}
	}
	return b.Build()
}

// barbell joins two K_k cliques with a single bridge edge — the
// canonical slow-mixing graph.
func barbell(k int) *graph.Graph {
	b := graph.NewBuilder(k * k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			b.AddEdge(graph.NodeID(k+i), graph.NodeID(k+j))
		}
	}
	b.AddEdge(0, graph.NodeID(k))
	return b.Build()
}

// lanczosEstimate runs the Lanczos stage alone, without Solve's power
// fallback.
func lanczosEstimate(g *graph.Graph, opt Options) (*Estimate, error) {
	op, err := NewOperator(g)
	if err != nil {
		return nil, err
	}
	return slemLanczos(context.Background(), op, opt)
}

func connectedRandom(n, extra int, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 23))
	b := graph.NewBuilder(0)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(i)), graph.NodeID(i))
	}
	for k := 0; k < extra; k++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	return b.Build()
}

func TestOperatorRejectsDegenerate(t *testing.T) {
	if _, err := NewOperator(&graph.Graph{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddNode(2)
	if _, err := NewOperator(b.Build()); err == nil {
		t.Fatal("isolated vertex accepted")
	}
}

func TestOperatorTopEigenvector(t *testing.T) {
	g := connectedRandom(30, 40, 1)
	op, err := NewOperator(g)
	if err != nil {
		t.Fatal(err)
	}
	v1 := op.TopEigenvector()
	sv := make([]float64, g.NumNodes())
	op.Apply(sv, v1, nil)
	for i := range v1 {
		if math.Abs(sv[i]-v1[i]) > 1e-12 {
			t.Fatalf("S·v1 != v1 at %d: %v vs %v", i, sv[i], v1[i])
		}
	}
	var norm float64
	for _, v := range v1 {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("‖v1‖² = %v", norm)
	}
}

func TestDenseSLEMCompleteGraph(t *testing.T) {
	// K_n: P has eigenvalues 1 and -1/(n-1); µ = 1/(n-1).
	for _, n := range []int{3, 5, 10} {
		mu, err := DenseSLEM(complete(n))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / float64(n-1)
		if math.Abs(mu-want) > 1e-10 {
			t.Fatalf("K%d: µ = %v, want %v", n, mu, want)
		}
	}
}

func TestDenseSpectrumOddCycle(t *testing.T) {
	// C_n: eigenvalues cos(2πk/n); for odd n, µ = cos(π/n).
	n := 9
	vals, err := DenseSpectrum(ring(n))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[n-1]-1) > 1e-10 {
		t.Fatalf("top eigenvalue %v", vals[n-1])
	}
	wantMin := math.Cos(math.Pi * float64(n-1) / float64(n))
	if math.Abs(vals[0]-wantMin) > 1e-10 {
		t.Fatalf("min eigenvalue %v, want %v", vals[0], wantMin)
	}
}

func TestSLEMPowerMatchesAnalytic(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		mu   float64
	}{
		{"K10", complete(10), 1.0 / 9},
		{"C9", ring(9), math.Cos(math.Pi / 9)},
		{"C8 (bipartite)", ring(8), 1},
		{"star (bipartite)", star(6), 1},
		{"Q3 (bipartite)", hypercube(3), 1},
	}
	for _, c := range cases {
		est, err := SLEMPowerContext(context.Background(), c.g, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(est.Mu-c.mu) > 1e-7 {
			t.Errorf("%s: µ = %v, want %v (λ2=%v λn=%v, conv=%v)",
				c.name, est.Mu, c.mu, est.Lambda2, est.LambdaN, est.Converged)
		}
	}
}

func TestSLEMLanczosMatchesAnalytic(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		mu   float64
	}{
		{"K10", complete(10), 1.0 / 9},
		{"C9", ring(9), math.Cos(math.Pi / 9)},
		{"C12 (bipartite)", ring(12), 1},
		{"Q4 λ2", hypercube(4), 1}, // bipartite: λn = −1
	}
	for _, c := range cases {
		est, err := lanczosEstimate(c.g, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(est.Mu-c.mu) > 1e-6 {
			t.Errorf("%s: µ = %v, want %v", c.name, est.Mu, c.mu)
		}
	}
	// Hypercube λ2 = (d-2)/d.
	est, err := lanczosEstimate(hypercube(4), Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Lambda2-0.5) > 1e-6 {
		t.Errorf("Q4: λ2 = %v, want 0.5", est.Lambda2)
	}
	if math.Abs(est.LambdaN+1) > 1e-6 {
		t.Errorf("Q4: λn = %v, want -1", est.LambdaN)
	}
}

func TestBarbellSlowMixing(t *testing.T) {
	est, err := lanczosEstimate(barbell(10), Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mu < 0.98 {
		t.Fatalf("barbell µ = %v, expected near 1", est.Mu)
	}
	if est.Mu >= 1 {
		t.Fatalf("barbell µ = %v, must be < 1 (connected, non-bipartite)", est.Mu)
	}
	want, err := DenseSLEM(barbell(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mu-want) > 1e-6 {
		t.Fatalf("barbell µ = %v, dense oracle %v", est.Mu, want)
	}
}

// Property: on random connected graphs, power iteration, Lanczos and
// the dense Jacobi oracle agree on µ.
func TestQuickSLEMAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%30)
		g := connectedRandom(n, n, seed)
		want, err := DenseSLEM(g)
		if err != nil {
			t.Logf("dense: %v", err)
			return false
		}
		pow, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-9, Seed: seed + 1})
		if err != nil {
			t.Logf("power: %v", err)
			return false
		}
		lan, err := lanczosEstimate(g, Options{Tol: 1e-9, Seed: seed + 2})
		if err != nil {
			t.Logf("lanczos: %v", err)
			return false
		}
		if math.Abs(pow.Mu-want) > 1e-5 {
			t.Logf("seed %d: power %v vs dense %v", seed, pow.Mu, want)
			return false
		}
		if math.Abs(lan.Mu-want) > 1e-5 {
			t.Logf("seed %d: lanczos %v vs dense %v", seed, lan.Mu, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileAgainstDenseSpectrum(t *testing.T) {
	g := connectedRandom(60, 80, 31)
	want, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Profile(g, 5, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d eigenvalues", len(got))
	}
	// got[i] should match λ_{2+i} from the dense (ascending) spectrum.
	n := len(want)
	for i := 0; i < 5; i++ {
		if math.Abs(got[i]-want[n-2-i]) > 1e-6 {
			t.Fatalf("profile[%d] = %v, dense %v", i, got[i], want[n-2-i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1]+1e-12 {
			t.Fatal("profile not descending")
		}
	}
}

func TestProfileCountsCommunities(t *testing.T) {
	// Four barely-connected cliques: three eigenvalues near 1 (the
	// fourth is the deflated λ₁).
	b := graph.NewBuilder(0)
	for c := 0; c < 4; c++ {
		base := graph.NodeID(c * 10)
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				b.AddEdge(base+graph.NodeID(i), base+graph.NodeID(j))
			}
		}
	}
	for c := 0; c < 3; c++ {
		b.AddEdge(graph.NodeID(c*10), graph.NodeID((c+1)*10))
	}
	g := b.Build()
	prof, err := Profile(g, 6, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	near1 := 0
	for _, l := range prof {
		if l > 0.9 {
			near1++
		}
	}
	if near1 != 3 {
		t.Fatalf("%d eigenvalues near 1, want 3 (profile %v)", near1, prof)
	}
}

// TestProfilePinnedBits pins Profile's values bit for bit. The dense
// comparisons above hold only within a tolerance, so a change to the
// Lanczos loop that moves the values (start stream, stop rule,
// reorthogonalization order) would pass them unnoticed.
func TestProfilePinnedBits(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
		want []uint64
	}{
		{"barbell(10)", barbell(10), 3, []uint64{
			0x3fef6756cdf0271d, 0xbf86c16c16b71793, 0xbfbc71c71c72556f}},
		{"planted partition 4x30", gen.PlantedPartition(4, 30, 0.3, 0.005, rand.New(rand.NewPCG(7, 1))), 8, []uint64{
			0x3fef7c49880e08fc, 0x3fef1e2acb304f6b, 0x3fee9dc397b7b648, 0x3fdea22d14e91dfc,
			0x3fdce04c7604fdd8, 0x3fdc9ebff47288a0, 0x3fdc1032a55d19f8, 0x3fdabc963db3a4cc}},
	}
	for _, c := range cases {
		got, err := Profile(c.g, c.k, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d eigenvalues, want %d", c.name, len(got), len(c.want))
		}
		for i, v := range got {
			if bits := math.Float64bits(v); bits != c.want[i] {
				t.Errorf("%s: profile[%d] = %v (%#016x), pinned %v (%#016x)",
					c.name, i, v, bits, math.Float64frombits(c.want[i]), c.want[i])
			}
		}
	}
}

func TestSLEMDefaultEntryPoint(t *testing.T) {
	est, err := SLEMContext(context.Background(), complete(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mu-1.0/7) > 1e-6 {
		t.Fatalf("µ = %v", est.Mu)
	}
}

func TestMixingBounds(t *testing.T) {
	// Known point: µ=0.9, ε=0.1 → lower = 0.9/0.2·ln(5) ≈ 7.24.
	lb := MixingLowerBound(0.9, 0.1)
	if math.Abs(lb-0.9/0.2*math.Log(5)) > 1e-12 {
		t.Fatalf("lower bound %v", lb)
	}
	if MixingLowerBound(1.0, 0.1) != math.Inf(1) {
		t.Fatal("µ=1 lower bound not Inf")
	}
	if MixingLowerBound(0.9, 0.5) != 0 {
		t.Fatal("ε≥0.5 lower bound not 0")
	}
	ub := MixingUpperBound(0.9, 0.1, 1000)
	if ub <= lb {
		t.Fatalf("upper %v <= lower %v", ub, lb)
	}
	if MixingUpperBound(1, 0.1, 10) != math.Inf(1) {
		t.Fatal("µ=1 upper bound not Inf")
	}
	// Monotonicity in µ and ε.
	if MixingLowerBound(0.99, 0.1) <= MixingLowerBound(0.9, 0.1) {
		t.Fatal("lower bound not increasing in µ")
	}
	if MixingLowerBound(0.9, 0.01) <= MixingLowerBound(0.9, 0.1) {
		t.Fatal("lower bound not increasing as ε shrinks")
	}
}

func TestEpsilonAtWalkLengthInvertsLowerBound(t *testing.T) {
	mu := 0.95
	for _, eps := range []float64{0.2, 0.05, 1e-3} {
		tm := MixingLowerBound(mu, eps)
		back := EpsilonAtWalkLength(mu, tm)
		if math.Abs(back-eps) > 1e-12 {
			t.Fatalf("round trip ε: %v -> %v", eps, back)
		}
	}
	if EpsilonAtWalkLength(1, 100) != 0.5 {
		t.Fatal("µ=1 epsilon should stay 0.5")
	}
}

func TestFastMixingWalkLength(t *testing.T) {
	if FastMixingWalkLength(1_000_000) != 14 {
		t.Fatalf("log(1e6) = %d", FastMixingWalkLength(1_000_000))
	}
	if FastMixingWalkLength(1) != 1 {
		t.Fatal("degenerate n")
	}
}

func TestCheegerBounds(t *testing.T) {
	lo, hi := CheegerBounds(0.92)
	if math.Abs(lo-0.04) > 1e-12 || math.Abs(hi-0.4) > 1e-12 {
		t.Fatalf("Cheeger(0.92) = %v, %v", lo, hi)
	}
	lo, hi = CheegerBounds(1.5) // clamped
	if lo != 0 || hi != 0 {
		t.Fatalf("clamp failed: %v %v", lo, hi)
	}
}

func TestConductanceOf(t *testing.T) {
	g := barbell(5)
	inS := make([]bool, g.NumNodes())
	for i := 0; i < 5; i++ {
		inS[i] = true
	}
	// Left clique: vol = 5·4 + 1 = 21, one crossing edge.
	phi := ConductanceOf(g, inS)
	if math.Abs(phi-1.0/21) > 1e-12 {
		t.Fatalf("Φ = %v, want 1/21", phi)
	}
	if !math.IsInf(ConductanceOf(g, make([]bool, g.NumNodes())), 1) {
		t.Fatal("empty set conductance not Inf")
	}
}

func TestSweepCutFindsBarbellBridge(t *testing.T) {
	g := barbell(8)
	cut, est, err := SweepConductanceContext(context.Background(), g, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Size != 8 {
		t.Fatalf("sweep cut size %d, want 8 (one clique)", cut.Size)
	}
	if cut.CrossEdges != 1 {
		t.Fatalf("cross edges %d, want 1", cut.CrossEdges)
	}
	// Cheeger sandwich: (1-λ2)/2 ≤ Φ ≤ √(2(1-λ2)).
	lo, hi := CheegerBounds(est.Lambda2)
	if cut.Conductance < lo-1e-9 || cut.Conductance > hi+1e-9 {
		t.Fatalf("Φ = %v outside Cheeger [%v, %v]", cut.Conductance, lo, hi)
	}
	// The returned conductance must match a recomputation.
	if got := ConductanceOf(g, cut.InS); math.Abs(got-cut.Conductance) > 1e-12 {
		t.Fatalf("reported Φ %v, recomputed %v", cut.Conductance, got)
	}
}

// Property: µ estimates always land in [0, 1] and sweep conductance
// respects the Cheeger upper bound.
func TestQuickSweepCheeger(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12 + int(seed%20)
		g := connectedRandom(n, n/2, seed)
		cut, est, err := SweepConductanceContext(context.Background(), g, Options{Tol: 1e-8, Seed: seed + 3})
		if err != nil {
			return false
		}
		if est.Mu < 0 || est.Mu > 1+1e-9 {
			return false
		}
		_, hi := CheegerBounds(est.Lambda2)
		return cut.Conductance <= hi+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkMatrixRowStochastic(t *testing.T) {
	g := connectedRandom(20, 15, 4)
	p := WalkMatrix(g)
	for v := range p {
		var s float64
		for _, x := range p[v] {
			s += x
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", v, s)
		}
	}
}

func BenchmarkSLEMPower10k(b *testing.B) {
	g := connectedRandom(10_000, 40_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SLEMPowerContext(context.Background(), g, Options{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLEMLanczos10k(b *testing.B) {
	g := connectedRandom(10_000, 40_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lanczosEstimate(g, Options{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}
