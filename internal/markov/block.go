package markov

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// DefaultBlockSize is the number of source distributions a blocked
// propagation serves per CSR pass when the caller does not choose a
// width. Eight doubles-per-source fills one 64-byte cache line, so
// every adjacency index loaded during the pass is amortized across a
// full line of right-hand sides.
const DefaultBlockSize = 8

// StepBlock advances width distributions by one walk step in a single
// pass over the CSR adjacency — the SpMV→SpMM transformation. dst and
// p are flat row-major n×width buffers: entry (v, j) of distribution
// j lives at p[v*width+j], so the per-neighbor loads the sequential
// Step pays once per source are paid once per block. scratch, if at
// least n*width long, avoids an allocation.
//
// Each column accumulates its row sums in the same neighbor order as
// Step, so column j of dst is byte-identical to running Step on
// column j alone.
func (c *Chain) StepBlock(dst, p []float64, width int, scratch []float64) {
	n := c.g.NumNodes()
	if width == 1 {
		c.Step(dst[:n], p[:n], scratch)
		return
	}
	if c.col != nil {
		c.col.Add(telemetry.SpMMBlocks, 1)
		c.col.Add(telemetry.EdgesScanned, int64(blockPasses(width))*c.adjLen)
	}
	size := n * width
	w := scratch
	if len(w) < size {
		w = make([]float64, size)
	} else {
		w = w[:size]
	}
	if useAVX2 {
		scaleAVX(w, p, c.invDeg, n, width)
	} else {
		for v := 0; v < n; v++ {
			inv := c.invDeg[v]
			row := p[v*width : (v+1)*width]
			out := w[v*width : (v+1)*width]
			for j, x := range row {
				out[j] = x * inv
			}
		}
	}
	c.stepBlockRows(dst, p, w, width, 0, n)
}

// blockPasses returns how many CSR passes one blocked step of the
// given width costs after register-group decomposition: a group of 8
// columns per pass, then a 4-group, a 2-group and a 1-group for the
// tail. The telemetry EdgesScanned counter multiplies by this so the
// observed edge traffic matches what the kernel really does.
func blockPasses(width int) int {
	passes := width / 8
	for rem := width % 8; rem > 0; rem &= rem - 1 {
		passes++
	}
	return passes
}

// groupLanes returns the width of the register group that covers the
// first of rem remaining columns: 8, then 4, 2 and 1 for the tail.
func groupLanes(rem int) int {
	switch {
	case rem >= 8:
		return 8
	case rem >= 4:
		return 4
	case rem >= 2:
		return 2
	}
	return 1
}

// stepBlockRows computes the blocked rows [lo, hi) from the
// pre-scaled w = p/deg. Like stepRows, rows are independent and each
// column's summation order matches the sequential kernel.
//
// Widths decompose into register-accumulator column groups: 8-column
// groups first (one cache line of float64 per source row), then a
// 4-, 2- and 1-column group for the tail, each group scanning the
// CSR once with its partial sums held entirely in registers. A
// memory-resident accumulator row (the pre-PR8 generic kernel) pays
// a per-neighbor inner loop over the row and was ~4× slower per
// source at width 4 than the width-8 register kernel; per-group
// passes trade a little extra index traffic for register residency
// and win at every width ≥ 2. Column j still sums its neighbors in
// CSR order regardless of grouping, so every decomposition is
// byte-identical to running the sequential Step on column j alone.
//
// With AVX2 the 8-, 4- and 2-column groups run in assembly: in scalar
// Go a 2-column tail pass costs ~3× an 8-column AVX pass, a third of
// the propagation time of 50 sources (six 8-wide blocks and a 2-wide
// one). A lone column (odd widths) has nothing to vectorize and stays
// in Go.
func (c *Chain) stepBlockRows(dst, p, w []float64, width, lo, hi int) {
	off, adj := c.g.Offsets32(), c.g.Adjacency()
	if useAVX2 {
		stride := width * 8
		for base := 0; base < width; {
			lanes := groupLanes(width - base)
			switch lanes {
			case 8:
				stepRows8AVX(dst[base:], p[base:], w[base:], off, adj, stride, lo, hi, c.lazy)
			case 4:
				stepRows4AVX(dst[base:], p[base:], w[base:], off, adj, stride, lo, hi, c.lazy)
			case 2:
				stepRows2AVX(dst[base:], p[base:], w[base:], off, adj, stride, lo, hi, c.lazy)
			default:
				c.stepBlockRows1s(dst, p, w, width, base, lo, hi, off, adj)
			}
			base += lanes
		}
		return
	}
	for base := 0; base < width; {
		lanes := groupLanes(width - base)
		switch lanes {
		case 8:
			c.stepBlockRows8s(dst, p, w, width, base, lo, hi, off, adj)
		case 4:
			c.stepBlockRows4s(dst, p, w, width, base, lo, hi, off, adj)
		case 2:
			c.stepBlockRows2s(dst, p, w, width, base, lo, hi, off, adj)
		default:
			c.stepBlockRows1s(dst, p, w, width, base, lo, hi, off, adj)
		}
		base += lanes
	}
}

// stepBlockRows8s advances columns [base, base+8) of a width-stride
// block (one cache line of float64 when width is 8): the eight column
// accumulators live in registers instead of a memory-resident out
// row, and the slice-to-array conversions pay one bounds check per
// neighbor instead of eight.
func (c *Chain) stepBlockRows8s(dst, p, w []float64, stride, base, lo, hi int, off []uint32, adj []graph.NodeID) {
	for v := lo; v < hi; v++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
			col := (*[8]float64)(w[int(adj[i])*stride+base:])
			s0 += col[0]
			s1 += col[1]
			s2 += col[2]
			s3 += col[3]
			s4 += col[4]
			s5 += col[5]
			s6 += col[6]
			s7 += col[7]
		}
		out := (*[8]float64)(dst[v*stride+base:])
		if c.lazy {
			row := (*[8]float64)(p[v*stride+base:])
			out[0] = 0.5*row[0] + 0.5*s0
			out[1] = 0.5*row[1] + 0.5*s1
			out[2] = 0.5*row[2] + 0.5*s2
			out[3] = 0.5*row[3] + 0.5*s3
			out[4] = 0.5*row[4] + 0.5*s4
			out[5] = 0.5*row[5] + 0.5*s5
			out[6] = 0.5*row[6] + 0.5*s6
			out[7] = 0.5*row[7] + 0.5*s7
		} else {
			out[0], out[1], out[2], out[3] = s0, s1, s2, s3
			out[4], out[5], out[6], out[7] = s4, s5, s6, s7
		}
	}
}

// stepBlockRows4s advances columns [base, base+4) of a width-stride
// block.
func (c *Chain) stepBlockRows4s(dst, p, w []float64, stride, base, lo, hi int, off []uint32, adj []graph.NodeID) {
	for v := lo; v < hi; v++ {
		var s0, s1, s2, s3 float64
		for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
			col := (*[4]float64)(w[int(adj[i])*stride+base:])
			s0 += col[0]
			s1 += col[1]
			s2 += col[2]
			s3 += col[3]
		}
		out := (*[4]float64)(dst[v*stride+base:])
		if c.lazy {
			row := (*[4]float64)(p[v*stride+base:])
			out[0] = 0.5*row[0] + 0.5*s0
			out[1] = 0.5*row[1] + 0.5*s1
			out[2] = 0.5*row[2] + 0.5*s2
			out[3] = 0.5*row[3] + 0.5*s3
		} else {
			out[0], out[1], out[2], out[3] = s0, s1, s2, s3
		}
	}
}

// stepBlockRows2s advances columns [base, base+2) of a width-stride
// block.
func (c *Chain) stepBlockRows2s(dst, p, w []float64, stride, base, lo, hi int, off []uint32, adj []graph.NodeID) {
	for v := lo; v < hi; v++ {
		var s0, s1 float64
		for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
			col := (*[2]float64)(w[int(adj[i])*stride+base:])
			s0 += col[0]
			s1 += col[1]
		}
		out := (*[2]float64)(dst[v*stride+base:])
		if c.lazy {
			row := (*[2]float64)(p[v*stride+base:])
			out[0] = 0.5*row[0] + 0.5*s0
			out[1] = 0.5*row[1] + 0.5*s1
		} else {
			out[0], out[1] = s0, s1
		}
	}
}

// stepBlockRows1s advances the single column base of a width-stride
// block — the last resort of the tail decomposition.
func (c *Chain) stepBlockRows1s(dst, p, w []float64, stride, base, lo, hi int, off []uint32, adj []graph.NodeID) {
	for v := lo; v < hi; v++ {
		var s float64
		for i, end := int(off[v]), int(off[v+1]); i < end; i++ {
			s += w[int(adj[i])*stride+base]
		}
		if c.lazy {
			dst[v*stride+base] = 0.5*p[v*stride+base] + 0.5*s
		} else {
			dst[v*stride+base] = s
		}
	}
}

// blockTV writes, for each of the width columns of p, the total
// variation distance to π into tv[:width]. One row-major pass serves
// every column; per-column accumulation order matches TVDistance.
func (c *Chain) blockTV(p []float64, width int, tv []float64) {
	tv = tv[:width]
	if width == 1 {
		tv[0] = c.tvColumn(p, 1, 0) / 2
		return
	}
	if useAVX2 {
		for base := 0; base < width; {
			lanes := groupLanes(width - base)
			if lanes == 1 {
				tv[base] = c.tvColumn(p, width, base)
			} else {
				blockTVAVX(p[base:], c.pi, len(c.pi), width*8, lanes, tv[base:])
			}
			base += lanes
		}
		for j := range tv {
			tv[j] /= 2
		}
		return
	}
	for j := range tv {
		tv[j] = 0
	}
	for v, pv := range c.pi {
		row := p[v*width : (v+1)*width]
		for j, x := range row {
			d := x - pv
			if d < 0 {
				d = -d
			}
			tv[j] += d
		}
	}
	for j := range tv {
		tv[j] /= 2
	}
}

// tvColumn returns Σ_v |p[v][col] − π_v| for one column of the
// stride-wide row-major p, rows in ascending order (the caller
// halves).
func (c *Chain) tvColumn(p []float64, stride, col int) float64 {
	var s float64
	for v, pv := range c.pi {
		d := p[v*stride+col] - pv
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// blockBuffers is one worker's reusable propagation state: two
// n×width distribution buffers, the scaling scratch, the per-column
// TV accumulator and the per-column first-crossing flags.
type blockBuffers struct {
	p, q, w, tv []float64
	crossed     []bool
}

func newBlockBuffers(n, width int) *blockBuffers {
	return &blockBuffers{
		p:       make([]float64, n*width),
		q:       make([]float64, n*width),
		w:       make([]float64, n*width),
		tv:      make([]float64, width),
		crossed: make([]bool, width),
	}
}

// traceBlock propagates the given sources together as one block of
// width len(sources), recording each column's TV curve after every
// step, for maxT steps or until every column has been below eps at
// least once, whichever comes first. buf must have capacity for at
// least that width.
func (c *Chain) traceBlock(ctx context.Context, sources []graph.NodeID, maxT int, eps float64, buf *blockBuffers) ([]*Trace, error) {
	n := c.g.NumNodes()
	width := len(sources)
	p := buf.p[:n*width]
	q := buf.q[:n*width]
	for i := range p {
		p[i] = 0
	}
	crossed := buf.crossed[:width]
	clear(crossed)
	traces := make([]*Trace, width)
	for j, s := range sources {
		p[int(s)*width+j] = 1
		traces[j] = &Trace{Source: s, TV: make([]float64, maxT)}
	}
	steps, open := maxT, width
	for t := 0; t < maxT; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("markov: blocked trace (%d sources) cancelled at step %d: %w", width, t, err)
		}
		c.StepBlock(q, p, width, buf.w)
		p, q = q, p
		c.blockTV(p, width, buf.tv)
		for j, tr := range traces {
			d := buf.tv[j]
			tr.TV[t] = d
			if d < eps && !crossed[j] {
				crossed[j] = true
				open--
			}
		}
		if open == 0 {
			steps = t + 1
			break
		}
	}
	for _, tr := range traces {
		tr.TV = tr.TV[:steps]
	}
	if c.col != nil {
		c.col.Add(telemetry.SourceSteps, int64(steps)*int64(width))
		c.col.Add(telemetry.TracesCompleted, int64(width))
	}
	return traces, nil
}

// TraceSampleBlockedContext is the blocked, cancellable, observable
// trace sampler the experiment drivers run on: sources are cut into
// blocks of blockSize (DefaultBlockSize when <= 0), each block
// propagates through StepBlock, and workers goroutines claim blocks
// from an atomic counter (workers <= 0 uses GOMAXPROCS). Every trace
// is byte-identical to a sequential TraceFrom, for any blockSize and
// any workers.
//
// eps > 0 sets a first-crossing horizon: a block stops after the step
// at which the last of its sources first dropped below eps, and each
// of its traces ends there, a bit-exact prefix of its maxT trace that
// contains that source's first crossing. Trace.MixingTime,
// MixingTime and AverageMixingTime at eps read only first crossings,
// so they return the full-horizon answer. A block with a source that
// never crosses runs all maxT steps. Readers of distances past the
// first crossing (probe walk lengths, whole curves) pass eps 0, which
// no TV distance is below, for the full horizon.
//
// The pool stops claiming blocks once ctx is done and in-flight
// blocks abort at their next step; the error then wraps ctx.Err().
// onTrace, if non-nil, is called after each completed block with the
// cumulative (done, total) source counts — calls are serialized and
// monotonic, so observers can report "sources completed" counters
// without their own locking.
func (c *Chain) TraceSampleBlockedContext(ctx context.Context, sources []graph.NodeID, maxT int, eps float64, blockSize, workers int, onTrace func(done, total int)) ([]*Trace, error) {
	total := len(sources)
	if total == 0 {
		return []*Trace{}, nil
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > total {
		blockSize = total
	}
	blocks := (total + blockSize - 1) / blockSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	n := c.g.NumNodes()
	traces := make([]*Trace, total)

	// One worker claims the blocks in order with one set of buffers —
	// the sequential schedule; more claim them concurrently.
	var (
		next atomic.Int64
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			buf := newBlockBuffers(n, blockSize)
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks || ctx.Err() != nil {
					return
				}
				lo := b * blockSize
				hi := lo + blockSize
				if hi > total {
					hi = total
				}
				trs, err := c.traceBlock(ctx, sources[lo:hi], maxT, eps, buf)
				if err != nil {
					return // ctx cancelled; surfaced after Wait
				}
				copy(traces[lo:hi], trs)
				mu.Lock()
				done += hi - lo
				if onTrace != nil {
					onTrace(done, total)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("markov: blocked trace sampling cancelled after %d of %d sources: %w", done, total, err)
	}
	return traces, nil
}
