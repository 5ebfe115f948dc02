package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty summary %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if c.Quantile(0) != 10 || c.Quantile(1) != 40 {
		t.Fatal("extreme quantiles")
	}
	if got := c.Quantile(0.5); got != 25 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Quantile(1.0 / 3); math.Abs(got-20) > 1e-12 {
		t.Fatalf("q1/3 = %v", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile not NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	xs, ys := c.Points(5)
	if len(xs) != 5 {
		t.Fatalf("%d points", len(xs))
	}
	if xs[0] != 1 || xs[4] != 5 {
		t.Fatalf("xs = %v", xs)
	}
	if ys[4] != 1 {
		t.Fatalf("ys = %v", ys)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ys[i] < ys[i-1] {
			t.Fatal("points not monotone")
		}
	}
	xs, _ = c.Points(100) // clamps to n
	if len(xs) != 5 {
		t.Fatalf("clamped points %d", len(xs))
	}
}

func TestPercentileBands(t *testing.T) {
	// 0..99: top10 = mean(0..9) = 4.5, low10 = mean(90..99) = 94.5,
	// median20 = mean(40..59) = 49.5.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	b := PercentileBands(vals)
	if b.Top10 != 4.5 || b.Low10 != 94.5 || b.Median20 != 49.5 {
		t.Fatalf("bands %+v", b)
	}
	// Small samples degrade without panicking.
	small := PercentileBands([]float64{3})
	if small.Top10 != 3 || small.Low10 != 3 || small.Median20 != 3 {
		t.Fatalf("single-element bands %+v", small)
	}
	if z := PercentileBands(nil); z != (Bands{}) {
		t.Fatalf("empty bands %+v", z)
	}
}

func TestBandsOrdered(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		vals := make([]float64, 5+int(seed%200))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		b := PercentileBands(vals)
		return b.Top10 <= b.Median20+1e-12 && b.Median20 <= b.Low10+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the plotted CDF is monotone and ends at 1, and Quantile
// is the generalized inverse of the empirical CDF.
func TestQuickCDF(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		vals := make([]float64, 1+int(seed%100))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		c := NewCDF(vals)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// at is the fraction of the sample ≤ x.
		at := func(x float64) float64 {
			return float64(sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))) / float64(len(sorted))
		}
		xs, ys := c.Points(len(vals))
		for i := range xs {
			if ys[i] > at(xs[i]) || (i > 0 && ys[i] < ys[i-1]) {
				return false
			}
		}
		if ys[len(ys)-1] != 1 {
			return false
		}
		// Quantile of at(x) returns something ≤ x (+ float slack).
		for _, q := range []float64{0.1, 0.5, 0.9} {
			x := c.Quantile(q)
			if at(x) < q-1.0/float64(len(vals))-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
