package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the smallest sample count whose p99 leaves at
// least ten samples beyond it: the nearest-rank p99 of 1000 samples is
// the 990th, with ten above.
const minTailSamples = 1000

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1), 0
// for an empty set.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile of xs. It refuses sample sets too
// small to leave ten samples beyond the percentile: a tail read off
// fewer is one or two unlucky requests, not a distribution.
func p99(xs []float64) (float64, error) {
	if len(xs) < minTailSamples {
		return 0, fmt.Errorf("p99 needs at least %d latency samples (ten beyond it), the run produced %d",
			minTailSamples, len(xs))
	}
	return quantile(xs, 0.99), nil
}

// interval is a closed-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it covered by
// the union of its children's intervals, so overlapping children (two
// concurrent calls under one span) are not subtracted twice.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
