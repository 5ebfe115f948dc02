// Package stats provides the small statistical toolkit the experiment
// drivers use to aggregate per-source mixing measurements into the
// paper's figures: empirical CDFs (Figures 3–4), quantile curves
// (Figure 5's "Top 99.9%"), and percentile-band means (Figure 7's
// top-10 / median-20 / lowest-10 aggregation).
package stats

import (
	"math"
	"sort"
)

// Summary holds the moments and extremes of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes a Summary of values. An empty sample yields the
// zero Summary.
func Summarize(values []float64) Summary {
	n := len(values)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(n)
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	if n > 1 {
		s.Std = math.Sqrt(ss / float64(n-1))
	}
	c := NewCDF(values)
	s.Median = c.Quantile(0.5)
	return s
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the sample.
func NewCDF(values []float64) *CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) with linear
// interpolation between order statistics.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return c.sorted[n-1]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Points returns up to k evenly spaced (value, cumulative fraction)
// pairs suitable for plotting the CDF.
func (c *CDF) Points(k int) (xs, ys []float64) {
	n := len(c.sorted)
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	xs = make([]float64, k)
	ys = make([]float64, k)
	for i := 0; i < k; i++ {
		idx := i * (n - 1) / max(k-1, 1)
		xs[i] = c.sorted[idx]
		ys[i] = float64(idx+1) / float64(n)
	}
	return xs, ys
}

// Bands is the Figure-7 aggregation of a sample of per-source
// variation distances: the mean of the best (smallest) 10%, the mean
// of the middle 20% (around the median), and the mean of the worst
// (largest) 10%.
type Bands struct {
	Top10, Median20, Low10 float64
}

// PercentileBands computes Bands. Fewer than 10 samples degrade
// gracefully: each band contains at least one element.
func PercentileBands(values []float64) Bands {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Bands{}
	}
	seg := func(lo, hi int) float64 {
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		if hi <= lo {
			hi = lo + 1
			if hi > n {
				lo, hi = n-1, n
			}
		}
		var sum float64
		for _, v := range s[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	tenth := n / 10
	if tenth < 1 {
		tenth = 1
	}
	mid := n / 2
	width := n / 10 // 20% total, 10% each side
	if width < 1 {
		width = 1
	}
	return Bands{
		Top10:    seg(0, tenth),
		Median20: seg(mid-width, mid+width),
		Low10:    seg(n-tenth, n),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
