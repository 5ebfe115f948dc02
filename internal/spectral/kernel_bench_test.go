// Kernel benchmarks for the eigensolvers and the sharded matvec,
// isolated in the spectral test binary so the bench.sh snapshot's
// hot-loop layout depends only on this package's dependencies (see
// the note in internal/markov/kernel_bench_test.go).
package spectral_test

import (
	"context"
	"fmt"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/graph"
	"mixtime/internal/spectral"
)

// kernelGraph is the DESIGN.md §7 ablation workload (physics-2 at
// scale 0.1).
func kernelGraph() *graph.Graph {
	d, err := datasets.ByName("physics-2")
	if err != nil {
		panic(err)
	}
	return d.Generate(0.1, 1)
}

// largeKernelGraph is the facebook-A substitute at a scale whose
// adjacency (~2M entries) is well past the parallel matvec gate —
// the regime the sharded kernels exist for.
func largeKernelGraph() *graph.Graph {
	d, err := datasets.ByName("facebook-A")
	if err != nil {
		panic(err)
	}
	return d.Generate(0.05, 1)
}

func BenchmarkSLEMPower(b *testing.B) {
	g := kernelGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := spectral.SLEMPowerContext(context.Background(), g, spectral.Options{Tol: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(est.Iterations), "matvecs")
		}
	}
}

func BenchmarkSLEMLanczos(b *testing.B) {
	g := kernelGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := spectral.SLEMContext(context.Background(), g, spectral.Options{Tol: 1e-6})
		if err != nil {
			b.Fatal(err)
		}
		// A converged estimate with no λ_n power phase came from
		// Lanczos alone, without the power fallback.
		if !est.Converged || est.ItersN != 0 {
			b.Fatal("Lanczos did not converge; the power fallback ran")
		}
		if i == 0 {
			b.ReportMetric(float64(est.Iterations), "matvecs")
		}
	}
}

// BenchmarkApplyParallel measures the row-sharded symmetric matvec on
// a graph large enough to clear the parallel gate.
func BenchmarkApplyParallel(b *testing.B) {
	g := largeKernelGraph()
	op, err := spectral.NewOperator(g)
	if err != nil {
		b.Fatal(err)
	}
	n := op.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	dst := make([]float64, n)
	scratch := make([]float64, n)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.ApplyParallel(dst, x, scratch, workers)
			}
		})
	}
}
