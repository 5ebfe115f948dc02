package markov

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// blockFixtures are the graphs the blocked kernels must match the
// sequential ones on bit-for-bit: an Erdős–Rényi graph (uniform
// degrees) and a relaxed caveman graph (community structure with the
// skewed degree mix the shard plan exists for).
func blockFixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	erg, _ := graph.LargestComponent(gen.ErdosRenyi(300, 0.03, rand.New(rand.NewPCG(5, 6))))
	cave, _ := graph.LargestComponent(gen.RelaxedCaveman(12, 10, 0.1, rand.New(rand.NewPCG(7, 8))))
	return map[string]*graph.Graph{"erdos-renyi": erg, "caveman": cave}
}

// mustEqualTraces fails unless the two trace sets are byte-identical.
func mustEqualTraces(t *testing.T, label string, got, want []*Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d traces, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Source != want[i].Source {
			t.Fatalf("%s: trace %d source %d, want %d", label, i, got[i].Source, want[i].Source)
		}
		if len(got[i].TV) != len(want[i].TV) {
			t.Fatalf("%s: trace %d has %d steps, want %d", label, i, len(got[i].TV), len(want[i].TV))
		}
		for s := range want[i].TV {
			if got[i].TV[s] != want[i].TV[s] {
				t.Fatalf("%s: trace %d step %d: %v, want %v (not byte-identical)",
					label, i, s, got[i].TV[s], want[i].TV[s])
			}
		}
	}
}

func TestStepBlockMatchesStep(t *testing.T) {
	for name, g := range blockFixtures(t) {
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			n := g.NumNodes()
			for _, width := range []int{1, 2, 3, 8} {
				// Block columns are independent point masses spread a few
				// steps so the inputs are dense.
				cols := make([][]float64, width)
				for j := range cols {
					cols[j] = c.Propagate(c.Delta(graph.NodeID((j*13)%n)), j%3)
				}
				p := make([]float64, n*width)
				for j, col := range cols {
					for v, x := range col {
						p[v*width+j] = x
					}
				}
				dst := make([]float64, n*width)
				c.StepBlock(dst, p, width, nil)
				for j, col := range cols {
					want := make([]float64, n)
					c.Step(want, col, nil)
					for v := 0; v < n; v++ {
						if dst[v*width+j] != want[v] {
							t.Fatalf("%s lazy=%v width=%d: col %d row %d: %v, want %v",
								name, c.IsLazy(), width, j, v, dst[v*width+j], want[v])
						}
					}
				}
			}
		}
	}
}

func TestTraceBlockMatchesTraceFrom(t *testing.T) {
	for name, g := range blockFixtures(t) {
		c := mustChain(t, g, Lazy())
		sources := []graph.NodeID{0, 3, graph.NodeID(g.NumNodes() - 1)}
		got, err := c.traceBlock(context.Background(), sources, 20, 0, newBlockBuffers(g.NumNodes(), len(sources)))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Trace, len(sources))
		for i, s := range sources {
			want[i] = c.TraceFrom(s, 20)
		}
		mustEqualTraces(t, name, got, want)
	}
}

// TestTraceSampleBlockedMatchesSequential demands every blocked trace
// equal a per-source TraceFrom bit for bit, lazy and plain, for any
// block size and worker count, and that edges_scanned counts the CSR
// passes actually run: one per register group of 8, 4, 2 or 1
// columns, per block and step.
func TestTraceSampleBlockedMatchesSequential(t *testing.T) {
	const maxT = 25
	for name, g := range blockFixtures(t) {
		n := g.NumNodes()
		// Seven sources: odd tails for every block size below, and the
		// degenerate blockSize=1 path. Fifty at the default block size
		// is the paper-figs shape: six 8-wide blocks and a 2-wide tail.
		seven := []graph.NodeID{0, 2, 5, graph.NodeID(n / 3), graph.NodeID(n / 2),
			graph.NodeID(n - 2), graph.NodeID(n - 1)}
		fifty := SampleSources(g, 50, rand.New(rand.NewPCG(3, 5)))
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			c := mustChain(t, g, lazyOpt...)
			for _, sources := range [][]graph.NodeID{seven, fifty} {
				want := c.TraceSample(sources, maxT)
				for _, blockSize := range []int{0, 1, 2, 3, 8, 16} {
					for _, workers := range []int{0, 1, 2, 4} {
						col := telemetry.New()
						cc := mustChain(t, g, append(lazyOpt, WithCollector(col))...)
						got, err := cc.TraceSampleBlockedContext(context.Background(),
							sources, maxT, 0, blockSize, workers, nil)
						label := fmt.Sprintf("%s lazy=%v sources=%d B=%d workers=%d",
							name, cc.IsLazy(), len(sources), blockSize, workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						mustEqualTraces(t, label, got, want)
						wantEdges := int64(groupPasses(len(sources), blockSize)*maxT) * 2 * g.NumEdges()
						if got := col.Snapshot().Get(telemetry.EdgesScanned); got != wantEdges {
							t.Fatalf("%s: edges_scanned = %d, want %d", label, got, wantEdges)
						}
					}
				}
			}
		}
	}
}

// groupPasses counts the CSR passes one step of every block costs
// when total sources are cut into blocks of blockSize (8 when 0) and
// each block into greedy 8-, 4-, 2- and 1-column register groups.
func groupPasses(total, blockSize int) int {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	passes := 0
	for lo := 0; lo < total; lo += blockSize {
		b := min(blockSize, total-lo)
		passes += b/8 + b%8/4 + b%4/2 + b%2
	}
	return passes
}

// stopFixtures are the graphs the first-crossing horizon is checked
// on: the gen families (uniform, community, bipartite grid, barbell
// bottleneck, preferential attachment) and three Table-1 substitutes
// at their 200-node floor. The plain walk on the grid never mixes, so
// its blocks always run the full horizon.
func stopFixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	fx := blockFixtures(t)
	fx["grid"] = gen.Grid(8, 10)
	fx["barbell"] = gen.Barbell(12)
	fx["barabasi-albert"] = gen.BarabasiAlbert(200, 2, rand.New(rand.NewPCG(9, 10)))
	for _, name := range []string{"wiki-vote", "physics-1", "youtube"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fx[name] = d.Generate(0.0005, 1)
	}
	return fx
}

// TestTraceStopMatchesFullHorizon holds the first-crossing horizon to
// the full-horizon traces: every stopped trace is a bit-exact prefix
// of its TraceFrom trace, every trace of a block ends at the block's
// last first crossing of eps (maxT when some source never crosses),
// first-crossing readers return the full-horizon answers, and
// source_steps and edges_scanned count the steps actually run. Only
// the plain walk on the Erdős–Rényi graph reaches eps 1e-12 within
// maxT; every other fixture runs those blocks to the full horizon.
func TestTraceStopMatchesFullHorizon(t *testing.T) {
	const maxT = 80
	early, full := 0, 0
	for name, g := range stopFixtures(t) {
		sources := SampleSources(g, 13, rand.New(rand.NewPCG(4, 2)))
		for _, lazyOpt := range [][]Option{nil, {Lazy()}} {
			ref := mustChain(t, g, lazyOpt...).TraceSample(sources, maxT)
			for _, eps := range []float64{0.25, 0.1, 0.02, 1e-12} {
				for _, blockSize := range []int{1, 3, 8, 16} {
					for _, workers := range []int{1, 2} {
						col := telemetry.New()
						c := mustChain(t, g, append(lazyOpt, WithCollector(col))...)
						label := fmt.Sprintf("%s lazy=%v eps=%v B=%d workers=%d", name, c.IsLazy(), eps, blockSize, workers)
						got, err := c.TraceSampleBlockedContext(context.Background(), sources, maxT, eps, blockSize, workers, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						var wantSteps, wantEdges int64
						b := min(blockSize, len(sources))
						for lo := 0; lo < len(sources); lo += b {
							hi := min(lo+b, len(sources))
							stop := 0
							for _, tr := range ref[lo:hi] {
								ti, ok := tr.MixingTime(eps)
								if !ok {
									ti = maxT
								}
								stop = max(stop, ti)
							}
							if stop < maxT {
								early++
							} else {
								full++
							}
							for i := lo; i < hi; i++ {
								if len(got[i].TV) != stop {
									t.Fatalf("%s: trace %d has %d steps, want the block's last first crossing %d",
										label, i, len(got[i].TV), stop)
								}
								mustEqualTraces(t, label, got[i:i+1], []*Trace{{Source: ref[i].Source, TV: ref[i].TV[:stop]}})
								gt, gok := got[i].MixingTime(eps)
								wt, wok := ref[i].MixingTime(eps)
								if gt != wt || gok != wok {
									t.Fatalf("%s: trace %d MixingTime = %d,%v, full horizon %d,%v", label, i, gt, gok, wt, wok)
								}
							}
							wantSteps += int64(stop * (hi - lo))
							wantEdges += int64(stop*blockPasses(hi-lo)) * 2 * g.NumEdges()
						}
						gt, gok := MixingTime(got, eps)
						wt, wok := MixingTime(ref, eps)
						if gt != wt || gok != wok {
							t.Fatalf("%s: MixingTime = %d,%v, full horizon %d,%v", label, gt, gok, wt, wok)
						}
						if ga, wa := AverageMixingTime(got, eps), AverageMixingTime(ref, eps); ga != wa {
							t.Fatalf("%s: AverageMixingTime = %v, full horizon %v", label, ga, wa)
						}
						snap := col.Snapshot()
						if got := snap.Get(telemetry.SourceSteps); got != wantSteps {
							t.Fatalf("%s: source_steps = %d, want %d", label, got, wantSteps)
						}
						if got := snap.Get(telemetry.EdgesScanned); got != wantEdges {
							t.Fatalf("%s: edges_scanned = %d, want %d", label, got, wantEdges)
						}
					}
				}
			}
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("%d blocks stopped early and %d ran the full horizon; the fixtures must exercise both", early, full)
	}
}

func TestTraceSampleBlockedProgress(t *testing.T) {
	g := complete(20)
	c := mustChain(t, g)
	sources := []graph.NodeID{0, 1, 2, 3, 4, 5, 6} // blocks of 3: 3+3+1
	var dones []int
	_, err := c.TraceSampleBlockedContext(context.Background(), sources, 5, 0, 3, 1,
		func(done, total int) {
			if total != len(sources) {
				t.Fatalf("total = %d", total)
			}
			dones = append(dones, done)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 3 || dones[0] != 3 || dones[1] != 6 || dones[2] != 7 {
		t.Fatalf("progress = %v, want [3 6 7]", dones)
	}
}

func TestTraceSampleBlockedCancellation(t *testing.T) {
	g := complete(30)
	c := mustChain(t, g)
	sources := make([]graph.NodeID, 12)
	for i := range sources {
		sources[i] = graph.NodeID(i)
	}

	// Already-cancelled context: no block survives its first step.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TraceSampleBlockedContext(ctx, sources, 50, 0, 4, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if _, err := c.TraceSampleBlockedContext(ctx, sources, 50, 0, 4, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled parallel err = %v", err)
	}

	// Cancel mid-run, from the progress callback after the first block:
	// later blocks must abort and the error must wrap ctx.Err().
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err := c.TraceSampleBlockedContext(ctx2, sources, 50, 0, 4, 1,
		func(done, total int) { cancel2() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run err = %v", err)
	}
}

func TestTraceSampleBlockedEmptySources(t *testing.T) {
	c := mustChain(t, complete(5))
	got, err := c.TraceSampleBlockedContext(context.Background(), nil, 10, 0, 8, 2, nil)
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty sources = %v, %v", got, err)
	}
}

// Step must accept an oversized scratch by reslicing (no allocation)
// and fall back to allocating when scratch is too short — both paths
// must produce the same result.
func TestStepScratchSizes(t *testing.T) {
	g := connectedRandom(50, 80, 3)
	c := mustChain(t, g)
	n := g.NumNodes()
	p := c.Propagate(c.Delta(0), 3)
	want := make([]float64, n)
	c.Step(want, p, make([]float64, n))
	for _, size := range []int{0, n - 1, n + 17} {
		got := make([]float64, n)
		c.Step(got, p, make([]float64, size))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("scratch len %d: row %d differs", size, v)
			}
		}
	}
	// Oversized blocked scratch reslices too.
	width := 4
	pb := make([]float64, n*width)
	for j := 0; j < width; j++ {
		for v, x := range p {
			pb[v*width+j] = x
		}
	}
	dst := make([]float64, n*width)
	c.StepBlock(dst, pb, width, make([]float64, n*width+9))
	for j := 0; j < width; j++ {
		for v := 0; v < n; v++ {
			if dst[v*width+j] != want[v] {
				t.Fatalf("blocked oversized scratch: col %d row %d differs", j, v)
			}
		}
	}
}
