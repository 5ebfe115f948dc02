package markov

import (
	"math/rand/v2"
	"testing"

	"mixtime/internal/gen"
)

// TestAVXKernelsBitIdentical runs StepBlock and blockTV with the AVX2
// kernels enabled and disabled and demands bit-for-bit identical
// outputs at every width up to 8 — each tail group shape: 8, 4, 2
// and 1 columns and their combinations — and at the composite widths
// 12 and 16, lazy and plain. Skipped where the CPU lacks AVX2 — there
// the pure-Go kernels are the only implementation.
func TestAVXKernelsBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 unavailable; pure-Go kernels are the only path")
	}
	g := gen.WattsStrogatz(257, 6, 0.3, rand.New(rand.NewPCG(7, 7)))
	rng := rand.New(rand.NewPCG(11, 13))
	n := g.NumNodes()
	for _, lazy := range []bool{false, true} {
		var opts []Option
		if lazy {
			opts = append(opts, Lazy())
		}
		c, err := New(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
			// Entries straddle π, so the TV kernels' absolute values
			// see both signs.
			p := make([]float64, n*width)
			for i := range p {
				p[i] = 2 * rng.Float64() * c.pi[i/width]
			}
			qAsm := make([]float64, n*width)
			qGo := make([]float64, n*width)
			scratch := make([]float64, n*width)
			tvAsm := make([]float64, width)
			tvGo := make([]float64, width)

			useAVX2 = true
			c.StepBlock(qAsm, p, width, scratch)
			c.blockTV(qAsm, width, tvAsm)
			useAVX2 = false
			c.StepBlock(qGo, p, width, scratch)
			c.blockTV(qGo, width, tvGo)
			useAVX2 = true

			for i := range qAsm {
				if qAsm[i] != qGo[i] {
					t.Fatalf("lazy=%v width=%d: StepBlock diverges at %d: asm %x go %x",
						lazy, width, i, qAsm[i], qGo[i])
				}
			}
			for j := range tvAsm {
				if tvAsm[j] != tvGo[j] {
					t.Fatalf("lazy=%v width=%d: blockTV diverges at col %d: asm %x go %x",
						lazy, width, j, tvAsm[j], tvGo[j])
				}
			}
		}
	}
}

// TestAVXStepBlockMatchesSequential pins the deeper contract: with the
// asm kernels live, every column of a blocked step equals the bits a
// sequential Step produces for that column alone.
func TestAVXStepBlockMatchesSequential(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 unavailable")
	}
	g := gen.WattsStrogatz(123, 4, 0.2, rand.New(rand.NewPCG(3, 3)))
	n := g.NumNodes()
	rng := rand.New(rand.NewPCG(5, 17))
	for _, lazy := range []bool{false, true} {
		var opts []Option
		if lazy {
			opts = append(opts, Lazy())
		}
		c, err := New(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const width = 8
		p := make([]float64, n*width)
		for i := range p {
			p[i] = rng.Float64()
		}
		q := make([]float64, n*width)
		c.StepBlock(q, p, width, nil)
		col := make([]float64, n)
		out := make([]float64, n)
		for j := 0; j < width; j++ {
			for v := 0; v < n; v++ {
				col[v] = p[v*width+j]
			}
			c.Step(out, col, nil)
			for v := 0; v < n; v++ {
				if out[v] != q[v*width+j] {
					t.Fatalf("lazy=%v col %d row %d: blocked %x sequential %x",
						lazy, j, v, q[v*width+j], out[v])
				}
			}
		}
	}
}
