package trust

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/linalg"
	"mixtime/internal/markov"
	"mixtime/internal/spectral"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x7275)) }

func TestNewChainValidation(t *testing.T) {
	g := gen.Complete(5)
	if _, err := NewChain(&graph.Graph{}, nil, 0); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := NewChain(g, make(Weights, 3), 0); err == nil {
		t.Fatal("misaligned weights accepted")
	}
	if _, err := NewChain(g, UniformWeights(g), 1.0); err == nil {
		t.Fatal("α=1 accepted")
	}
	bad := UniformWeights(g)
	bad[0] = -1
	if _, err := NewChain(g, bad, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestUniformWeightsMatchPlainChain(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng(1))
	tc, err := NewChain(g, UniformWeights(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := markov.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Same stationary distribution.
	for v, p := range tc.Stationary() {
		if math.Abs(p-mc.Stationary()[v]) > 1e-14 {
			t.Fatalf("π[%d]: trust %v vs markov %v", v, p, mc.Stationary()[v])
		}
	}
	// Same propagation.
	a := tc.TraceFrom(0, 20)
	b := mc.TraceFrom(0, 20)
	for i := range a.TV {
		if math.Abs(a.TV[i]-b.TV[i]) > 1e-12 {
			t.Fatalf("step %d: %v vs %v", i, a.TV[i], b.TV[i])
		}
	}
}

// mass returns the total probability of the distribution p.
func mass(p []float64) float64 {
	var s float64
	for _, x := range p {
		s += x
	}
	return s
}

func TestStationaryInvariantUnderWeightsAndAlpha(t *testing.T) {
	g := gen.RelaxedCaveman(15, 6, 0.1, rng(2))
	for _, alpha := range []float64{0, 0.3} {
		for name, w := range map[string]Weights{
			"jaccard": JaccardWeights(g),
			"invdeg":  InverseDegreeWeights(g),
		} {
			c, err := NewChain(g, w, alpha)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pi := append([]float64(nil), c.Stationary()...)
			next := make([]float64, len(pi))
			c.Step(next, pi)
			if d := markov.TVDistance(next, c.Stationary()); d > 1e-13 {
				t.Fatalf("%s α=%v: ‖πP−π‖ = %g", name, alpha, d)
			}
			if s := mass(pi); math.Abs(s-1) > 1e-12 {
				t.Fatalf("%s: π sums to %v", name, s)
			}
		}
	}
}

func TestHesitationSlowsMixing(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, rng(3))
	w := UniformWeights(g)
	fast, err := NewChain(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewChain(g, w, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ft := fast.TraceFrom(0, 80)
	st := slow.TraceFrom(0, 80)
	// At every probe, hesitation keeps the distance higher.
	for _, probe := range []int{5, 20, 60} {
		if st.TV[probe] <= ft.TV[probe] {
			t.Fatalf("α=0.6 not slower at t=%d: %v vs %v", probe, st.TV[probe], ft.TV[probe])
		}
	}
	// And the SLEM moves by the affine law.
	fe, err := fast.SLEM(spectral.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	se, err := slow.SLEM(spectral.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.6 + 0.4*fe.Lambda2
	if math.Abs(se.Lambda2-want) > 1e-6 {
		t.Fatalf("α-mapped λ2 = %v, want %v", se.Lambda2, want)
	}
}

func TestJaccardSlowsCommunityGraph(t *testing.T) {
	// On a community-structured graph, similarity weighting further
	// down-weights the bridges, so mixing slows (µ grows).
	g := gen.RelaxedCaveman(20, 8, 0.05, rng(4))
	lcc, _ := graph.LargestComponent(g)
	uni, err := NewChain(lcc, UniformWeights(lcc), 0)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := NewChain(lcc, JaccardWeights(lcc), 0)
	if err != nil {
		t.Fatal(err)
	}
	ue, err := uni.SLEM(spectral.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	je, err := jac.SLEM(spectral.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if je.Mu <= ue.Mu {
		t.Fatalf("jaccard µ=%v not slower than uniform µ=%v", je.Mu, ue.Mu)
	}
}

func TestWeightedSLEMAgainstDenseOracle(t *testing.T) {
	// Build a small weighted graph, compute the weighted walk's SLEM
	// spectrally, and verify against a dense Jacobi eigensolve of
	// S = D_w^{-1/2} W D_w^{-1/2}.
	g := gen.Complete(8)
	w := JaccardWeights(g)
	c, err := NewChain(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := c.SLEM(spectral.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	strength := make([]float64, n)
	idx := 0
	type entry struct {
		u, v int
		w    float64
	}
	var entries []entry
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			strength[v] += w[idx]
			entries = append(entries, entry{v, int(u), w[idx]})
			idx++
		}
	}
	s := linalg.NewSymDense(n)
	for _, e := range entries {
		s.Data[e.u*n+e.v] = e.w / math.Sqrt(strength[e.u]*strength[e.v])
	}
	vals, _, err := linalg.EigenSym(s, false)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(math.Abs(vals[n-2]), math.Abs(vals[0]))
	if math.Abs(est.Mu-want) > 1e-7 {
		t.Fatalf("weighted µ = %v, dense oracle %v", est.Mu, want)
	}
}

func TestJaccardWeightsSymmetricAndBounded(t *testing.T) {
	g := gen.WattsStrogatz(120, 3, 0.2, rng(5))
	w := JaccardWeights(g)
	// Rebuild a map edge→weight from slot order and check symmetry.
	byEdge := map[[2]graph.NodeID]float64{}
	idx := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			byEdge[[2]graph.NodeID{graph.NodeID(v), u}] = w[idx]
			idx++
		}
	}
	for k, val := range byEdge {
		if val <= 0 || val > 1 {
			t.Fatalf("weight %v outside (0,1]", val)
		}
		if rev := byEdge[[2]graph.NodeID{k[1], k[0]}]; rev != val {
			t.Fatalf("asymmetric weight on %v: %v vs %v", k, val, rev)
		}
	}
}

// Property: trust chains preserve probability mass and never increase
// TV distance to π.
func TestQuickTrustChainContraction(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.BarabasiAlbert(60+int(seed%60), 2, rng(seed))
		c, err := NewChain(g, JaccardWeights(g), float64(seed%5)/10)
		if err != nil {
			return false
		}
		tr := c.TraceFrom(graph.NodeID(seed%uint64(g.NumNodes())), 40)
		for i := 1; i < len(tr.TV); i++ {
			if tr.TV[i] > tr.TV[i-1]+1e-12 {
				return false
			}
		}
		// Mass check after a fresh propagation.
		p := make([]float64, g.NumNodes())
		q := make([]float64, g.NumNodes())
		p[0] = 1
		for k := 0; k < 10; k++ {
			c.Step(q, p)
			p, q = q, p
		}
		return math.Abs(mass(p)-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJaccardWeights(b *testing.B) {
	g := gen.BarabasiAlbert(20_000, 5, rng(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardWeights(g)
	}
}
