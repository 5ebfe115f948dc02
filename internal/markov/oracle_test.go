package markov

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/linalg"
)

// spectralOracle is the dense eigendecomposition of one graph's walk,
// shared by its plain and lazy chains: S = D^{-1/2} A D^{-1/2} = V Λ Vᵀ
// is symmetric and similar to P = D⁻¹A, so
// Pᵗ = D^{-1/2} V Λᵗ Vᵀ D^{1/2}, and the lazy chain (I+P)/2 has the
// same V with eigenvalues (1+λ)/2. It shares no code with the
// propagation kernels.
type spectralOracle struct {
	n       int
	lambda  []float64
	vecs    []float64 // row-major n×n, column k is the eigenvector of lambda[k]
	sqrtDeg []float64
	pi      []float64
}

func newSpectralOracle(t *testing.T, g *graph.Graph) *spectralOracle {
	t.Helper()
	n := g.NumNodes()
	o := &spectralOracle{n: n, sqrtDeg: make([]float64, n), pi: make([]float64, n)}
	twoM := float64(2 * g.NumEdges())
	for v := range o.sqrtDeg {
		d := float64(g.Degree(graph.NodeID(v)))
		o.sqrtDeg[v] = math.Sqrt(d)
		o.pi[v] = d / twoM
	}
	s := linalg.NewSymDense(n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			s.Set(v, int(u), 1/(o.sqrtDeg[v]*o.sqrtDeg[u]))
		}
	}
	lambda, vecs, err := linalg.EigenSym(s, true)
	if err != nil {
		t.Fatal(err)
	}
	o.lambda, o.vecs = lambda, vecs.Data
	return o
}

// traces returns d_x(t) = ‖e_x Pᵗ − π‖_tv for t = 1..maxT and every
// source x: row x of Pᵗ is d_x^{-1/2} Σ_k V[x,k] λ_kᵗ V[·,k] d^{1/2}.
func (o *spectralOracle) traces(lazy bool, sources []graph.NodeID, maxT int) [][]float64 {
	lambda := append([]float64(nil), o.lambda...)
	if lazy {
		for k := range lambda {
			lambda[k] = (1 + lambda[k]) / 2
		}
	}
	out := make([][]float64, len(sources))
	coef := make([]float64, o.n)
	for i, x := range sources {
		copy(coef, o.vecs[int(x)*o.n:(int(x)+1)*o.n])
		for k := range coef {
			coef[k] /= o.sqrtDeg[x]
		}
		tv := make([]float64, maxT)
		for step := range tv {
			for k := range coef {
				coef[k] *= lambda[k]
			}
			var sum float64
			for y := 0; y < o.n; y++ {
				var py float64
				for k, v := range o.vecs[y*o.n : (y+1)*o.n] {
					py += v * coef[k]
				}
				sum += math.Abs(py*o.sqrtDeg[y] - o.pi[y])
			}
			tv[step] = sum / 2
		}
		out[i] = tv
	}
	return out
}

// TestTracesMatchSpectralClosedForm holds the blocked SpMM traces
// (AVX2 kernels on amd64) to an answer they did not produce: every
// d_x(t), t ≤ 50, must match the closed form within 1e-10, on the gen
// families with known spectra, an Erdős–Rényi graph and two Table-1
// substitutes at their 200-node floor, for the lazy and the plain
// chain at block sizes 1 and 8. Every source is checked when n ≤ 128,
// 32 sampled sources otherwise.
func TestTracesMatchSpectralClosedForm(t *testing.T) {
	const maxT, tol = 50, 1e-10
	erg, _ := graph.LargestComponent(gen.ErdosRenyiM(96, 240, rand.New(rand.NewPCG(11, 12))))
	graphs := map[string]*graph.Graph{
		"ring":        gen.Ring(31),
		"grid":        gen.Grid(8, 10),
		"barbell":     gen.Barbell(10),
		"hypercube":   gen.Hypercube(6),
		"erdos-renyi": erg,
	}
	for _, name := range []string{"wiki-vote", "physics-1"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = d.Generate(0.0005, 1)
	}
	for name, g := range graphs {
		n := g.NumNodes()
		if n > 300 {
			t.Fatalf("%s: %d nodes, too many for the dense oracle", name, n)
		}
		sources := SampleSources(g, 32, rand.New(rand.NewPCG(13, 14)))
		if n <= 128 {
			sources = SampleSources(g, n, nil)
		}
		oracle := newSpectralOracle(t, g)
		for _, lazy := range []bool{false, true} {
			var opts []Option
			if lazy {
				opts = append(opts, Lazy())
			}
			c := mustChain(t, g, opts...)
			want := oracle.traces(lazy, sources, maxT)
			for _, blockSize := range []int{1, 8} {
				label := fmt.Sprintf("%s (n=%d) lazy=%v B=%d", name, n, lazy, blockSize)
				got, err := c.TraceSampleBlockedContext(context.Background(), sources, maxT, 0, blockSize, 1, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i, tr := range got {
					if len(tr.TV) != maxT {
						t.Fatalf("%s: source %d has %d steps, want %d", label, tr.Source, len(tr.TV), maxT)
					}
					for step, d := range tr.TV {
						if e := want[i][step]; math.Abs(d-e) > tol {
							t.Fatalf("%s: source %d, t=%d: trace %.17g, closed form %.17g",
								label, tr.Source, step+1, d, e)
						}
					}
				}
			}
		}
	}
}
