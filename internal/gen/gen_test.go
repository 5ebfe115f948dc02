package gen

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"mixtime/internal/graph"
	"mixtime/internal/spectral"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xabcd)) }

func validate(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTopologies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		n    int
		m    int64
	}{
		{"ring", Ring(7), 7, 7},
		{"path", Path(5), 5, 4},
		{"complete", Complete(6), 6, 15},
		{"star", Star(4), 5, 4},
		{"grid", Grid(3, 4), 12, 17},
		{"hypercube", Hypercube(4), 16, 32},
		{"barbell", Barbell(5), 10, 21},
	}
	for _, c := range cases {
		validate(t, c.g)
		if c.g.NumNodes() != c.n || c.g.NumEdges() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d",
				c.name, c.g.NumNodes(), c.g.NumEdges(), c.n, c.m)
		}
		if !graph.IsConnected(c.g) {
			t.Errorf("%s disconnected", c.name)
		}
	}
}

func TestHypercubeSpectrum(t *testing.T) {
	// Q_3 walk eigenvalues: (3-2k)/3 for k=0..3.
	vals, err := spectral.DenseSpectrum(Hypercube(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, -1.0 / 3, 1.0 / 3, 1}
	idx := []int{0, 1, 5, 7} // multiplicities 1,3,3,1
	for i, w := range want {
		if math.Abs(vals[idx[i]]-w) > 1e-10 {
			t.Fatalf("Q3 spectrum %v, want %v at sorted pos %d", vals, w, idx[i])
		}
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	n, p := 500, 0.02
	g := ErdosRenyi(n, p, rng(1))
	validate(t, g)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("G(%d,%v): m=%v, want ≈%v", n, p, got, want)
	}
	if g.NumNodes() != n {
		t.Fatalf("n = %d", g.NumNodes())
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	if g := ErdosRenyi(10, 0, rng(2)); g.NumEdges() != 0 || g.NumNodes() != 10 {
		t.Fatalf("G(10,0): %v", g)
	}
	if g := ErdosRenyi(6, 1, rng(2)); g.NumEdges() != 15 {
		t.Fatalf("G(6,1): %v", g)
	}
}

func TestErdosRenyiM(t *testing.T) {
	g := ErdosRenyiM(100, 300, rng(3))
	validate(t, g)
	if g.NumEdges() != 300 {
		t.Fatalf("m = %d, want 300", g.NumEdges())
	}
	// Request more edges than possible: clamps to the complete graph.
	g = ErdosRenyiM(5, 100, rng(3))
	if g.NumEdges() != 10 {
		t.Fatalf("overfull m = %d, want 10", g.NumEdges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(300, 3, 0.1, rng(5))
	validate(t, g)
	if g.NumNodes() != 300 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Each node initiates 3 edges; rewiring can merge a few.
	if m := g.NumEdges(); m < 850 || m > 900 {
		t.Fatalf("m = %d, want ≈900", m)
	}
	// A lone node has nothing to rewire to: 1 node, 0 edges, for any
	// seed.
	for seed := uint64(1); seed <= 4; seed++ {
		if g := WattsStrogatz(1, 3, 0.5, rng(seed)); g.NumNodes() != 1 || g.NumEdges() != 0 {
			t.Fatalf("1-node WS (seed %d): n=%d m=%d", seed, g.NumNodes(), g.NumEdges())
		}
	}
	// beta=0 is the deterministic ring lattice.
	lattice := WattsStrogatz(50, 2, 0, rng(5))
	if lattice.NumEdges() != 100 {
		t.Fatalf("lattice m = %d", lattice.NumEdges())
	}
	for v := 0; v < 50; v++ {
		if lattice.Degree(graph.NodeID(v)) != 4 {
			t.Fatalf("lattice degree %d at %d", lattice.Degree(graph.NodeID(v)), v)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 5, rng(6))
	validate(t, g)
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if !graph.IsConnected(g) {
		t.Fatal("BA graph disconnected")
	}
	// m ≈ (n - seed)·k + seed·(seed-1)/2.
	if m := g.NumEdges(); m < 9500 || m > 10100 {
		t.Fatalf("m = %d", m)
	}
	// Preferential attachment must produce a heavy tail: the max
	// degree far exceeds the mean.
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Fatalf("max degree %d vs avg %v — no heavy tail", g.MaxDegree(), g.AvgDegree())
	}
	if g.MinDegree() < 5 {
		t.Fatalf("min degree %d < k", g.MinDegree())
	}
}

func TestPowerLawDegrees(t *testing.T) {
	deg := PowerLawDegrees(5000, 2.5, 2, 100, rng(7))
	sum := 0
	minD, maxD := deg[0], deg[0]
	for _, d := range deg {
		sum += d
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if sum%2 != 0 {
		t.Fatal("odd degree sum")
	}
	if minD < 2 || maxD > 101 {
		t.Fatalf("degree range [%d,%d]", minD, maxD)
	}
	// Power law with γ=2.5, min 2: most mass at small degrees.
	small := 0
	for _, d := range deg {
		if d <= 4 {
			small++
		}
	}
	if float64(small)/float64(len(deg)) < 0.6 {
		t.Fatalf("only %d/%d small degrees — not heavy-tailed shape", small, len(deg))
	}
}

func TestConfigurationModel(t *testing.T) {
	deg := PowerLawDegrees(2000, 2.3, 2, 80, rng(8))
	g := ConfigurationModel(deg, rng(9))
	validate(t, g)
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Collisions deflate slightly; realized edge total close to half
	// the stub count.
	var want int
	for _, d := range deg {
		want += d
	}
	if m := int(g.NumEdges()); m < want/2-want/20 || m > want/2 {
		t.Fatalf("m = %d, want ≈%d", m, want/2)
	}
}

func TestPlantedPartitionStructure(t *testing.T) {
	k, size := 4, 100
	g := PlantedPartition(k, size, 0.2, 0.005, rng(10))
	validate(t, g)
	if g.NumNodes() != k*size {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Count intra vs inter edges: intra should dominate.
	var intra, inter int64
	g.Edges(func(u, v graph.NodeID) bool {
		if int(u)/size == int(v)/size {
			intra++
		} else {
			inter++
		}
		return true
	})
	wantIntra := 0.2 * float64(k) * float64(size*(size-1)/2)
	wantInter := 0.005 * float64(k*(k-1)/2) * float64(size*size)
	if math.Abs(float64(intra)-wantIntra) > 5*math.Sqrt(wantIntra) {
		t.Fatalf("intra = %d, want ≈%v", intra, wantIntra)
	}
	if math.Abs(float64(inter)-wantInter) > 5*math.Sqrt(wantInter) {
		t.Fatalf("inter = %d, want ≈%v", inter, wantInter)
	}
}

func TestPlantedPartitionMixesSlowerWithWeakerBridges(t *testing.T) {
	strong := PlantedPartition(2, 150, 0.2, 0.02, rng(11))
	weak := PlantedPartition(2, 150, 0.2, 0.001, rng(11))
	muStrong, err := spectral.SLEMContext(context.Background(), strong, spectral.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	muWeak, err := spectral.SLEMContext(context.Background(), weak, spectral.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if muWeak.Mu <= muStrong.Mu {
		t.Fatalf("weak bridges µ=%v not slower than strong µ=%v", muWeak.Mu, muStrong.Mu)
	}
}

func TestRelaxedCaveman(t *testing.T) {
	g := RelaxedCaveman(20, 10, 0.05, rng(12))
	validate(t, g)
	if g.NumNodes() != 200 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if !graph.IsConnected(g) {
		t.Fatal("caveman disconnected despite clique chaining")
	}
	// Strong community structure: slow mixing relative to an ER graph
	// of the same size/density.
	muCave, err := spectral.SLEMContext(context.Background(), g, spectral.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	er := ErdosRenyiM(200, g.NumEdges(), rng(13))
	erLCC, _ := graph.LargestComponent(er)
	muER, err := spectral.SLEMContext(context.Background(), erLCC, spectral.Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if muCave.Mu <= muER.Mu {
		t.Fatalf("caveman µ=%v not slower than ER µ=%v", muCave.Mu, muER.Mu)
	}
}

func TestCommunityBA(t *testing.T) {
	g := CommunityBA(5, 200, 4, 40, rng(14))
	validate(t, g)
	if g.NumNodes() != 1000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	lcc, _ := graph.LargestComponent(g)
	if lcc.NumNodes() < 990 {
		t.Fatalf("LCC only %d nodes", lcc.NumNodes())
	}
}

func TestWithPendantsAndChains(t *testing.T) {
	r := rng(15)
	b := graph.NewBuilder(0)
	AddRelaxedCaveman(b, 1, 10, 0, r) // one unrewired cave: K10
	AddPendants(b, 30, r)
	withP := b.Build()
	validate(t, withP)
	if withP.NumNodes() != 40 || withP.NumEdges() != 45+30 {
		t.Fatalf("pendants: %v", withP)
	}
	if withP.MinDegree() != 1 {
		t.Fatalf("pendant degree %d", withP.MinDegree())
	}
	// Trimming to minDeg 2 removes exactly the pendants.
	core, _ := graph.Trim(withP, 2)
	if core.NumNodes() != 10 {
		t.Fatalf("trim left %d nodes", core.NumNodes())
	}
}

// Property: every random generator yields a structurally valid graph.
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		gs := []*graph.Graph{
			ErdosRenyi(50+int(seed%50), 0.05, r),
			ErdosRenyiM(60, 120, r),
			WattsStrogatz(60, 2, 0.2, r),
			BarabasiAlbert(80, 3, r),
			ConfigurationModel(PowerLawDegrees(70, 2.4, 2, 20, r), r),
			PlantedPartition(3, 25, 0.3, 0.02, r),
			RelaxedCaveman(6, 8, 0.1, r),
			CommunityBA(3, 30, 2, 6, r),
		}
		for _, g := range gs {
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestDegenerateInputs: every generator must handle n ≤ 0 and n = 1
// gracefully (the NodeID arithmetic must not wrap to 2³²-node
// graphs, and no rng.IntN(0) panics).
func TestDegenerateInputs(t *testing.T) {
	r := rng(99)
	zeroCases := map[string]*graph.Graph{
		"path0":     Path(0),
		"er0":       ErdosRenyi(0, 0.5, r),
		"erm0":      ErdosRenyiM(0, 10, r),
		"ws0":       WattsStrogatz(0, 2, 0.1, r),
		"ba0":       BarabasiAlbert(0, 3, r),
		"ff0":       ForestFire(0, 0.3, r),
		"sbm0":      PlantedPartition(0, 10, 0.5, 0.1, r),
		"caveman0":  RelaxedCaveman(0, 5, 0.1, r),
		"cba0":      CommunityBA(0, 10, 2, 3, r),
		"kleinberg": Kleinberg(0, 2, r),
		"hk0":       HolmeKim(0, 3, 0.5, r),
		"config0":   ConfigurationModel(nil, r),
	}
	for name, g := range zeroCases {
		if g.NumNodes() != 0 || g.NumEdges() != 0 {
			t.Errorf("%s: n=%d m=%d, want empty", name, g.NumNodes(), g.NumEdges())
		}
	}
	// n = 1: a single node, no edges, no panic.
	for name, g := range map[string]*graph.Graph{
		"path1": Path(1),
		"er1":   ErdosRenyi(1, 0.5, r),
		"ba1":   BarabasiAlbert(1, 3, r),
		"ff1":   ForestFire(1, 0.3, r),
	} {
		if g.NumNodes() != 1 || g.NumEdges() != 0 {
			t.Errorf("%s: n=%d m=%d, want lone node", name, g.NumNodes(), g.NumEdges())
		}
	}
	// Augmenters add nothing to an empty builder, or with a zero
	// count or size.
	b := graph.NewBuilder(0)
	AddPendants(b, 5, r)
	AddCliques(b, 5, 3, r)
	if b.NumNodes() != 0 || b.NumPendingEdges() != 0 {
		t.Errorf("augmenters on an empty builder: n=%d, %d edges", b.NumNodes(), b.NumPendingEdges())
	}
	b.AddEdge(0, 1)
	AddPendants(b, 0, r)
	AddCliques(b, 2, 0, r)
	AddCliques(b, 0, 3, r)
	if b.NumNodes() != 2 || b.NumPendingEdges() != 1 {
		t.Errorf("zero-count augmenters: n=%d, %d edges, want 2 and 1", b.NumNodes(), b.NumPendingEdges())
	}
}

func TestGeneratorsDeterministicFromSeed(t *testing.T) {
	a := BarabasiAlbert(500, 4, rng(77))
	b := BarabasiAlbert(500, 4, rng(77))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	if !slices.Equal(a.Offsets32(), b.Offsets32()) || !slices.Equal(a.Adjacency(), b.Adjacency()) {
		t.Fatal("same seed produced different graphs")
	}
}

func BenchmarkBarabasiAlbert100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BarabasiAlbert(100_000, 5, rng(uint64(i)))
	}
}

func BenchmarkPlantedPartition100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PlantedPartition(10, 10_000, 0.002, 0.00001, rng(uint64(i)))
	}
}
