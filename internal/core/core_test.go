package core

import (
	"context"
	"math"
	"testing"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
)

func TestMeasureCompleteGraph(t *testing.T) {
	m, err := MeasureContext(context.Background(), gen.Complete(30), Options{Sources: 30, MaxWalk: 40})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bipartite {
		t.Fatal("K30 reported bipartite")
	}
	if math.Abs(m.Mu()-1.0/29) > 1e-6 {
		t.Fatalf("µ = %v, want 1/29", m.Mu())
	}
	tm, ok := m.SampledMixingTime(0.01)
	if !ok || tm > 5 {
		t.Fatalf("K30 mixing time %d (ok=%v)", tm, ok)
	}
	if avg := m.AverageMixingTime(0.01); avg > float64(tm) {
		t.Fatalf("average %v exceeds worst case %d", avg, tm)
	}
	if lb := m.LowerBound(0.01); lb >= float64(tm)+1 {
		t.Fatalf("lower bound %v above measured %d", lb, tm)
	}
	if ub := m.UpperBound(0.01); float64(tm) > ub {
		t.Fatalf("measured %d above upper bound %v", tm, ub)
	}
}

func TestMeasureExtractsLCC(t *testing.T) {
	b := graph.NewBuilder(0)
	// Big component: ring of 20; small: a triangle.
	for i := 0; i < 20; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%20))
	}
	b.AddEdge(20, 21)
	b.AddEdge(21, 22)
	b.AddEdge(22, 20)
	m, err := MeasureContext(context.Background(), b.Build(), Options{Sources: 5, MaxWalk: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph.NumNodes() != 20 {
		t.Fatalf("measured component has %d nodes", m.Graph.NumNodes())
	}
	// Ring of 20 is bipartite → lazy chain.
	if !m.Bipartite || !m.Chain.IsLazy() {
		t.Fatal("bipartite component should use the lazy chain")
	}
	if m.Mu() >= 1 || m.Mu() <= 0 {
		t.Fatalf("lazy µ = %v", m.Mu())
	}
}

func TestMeasureKeepWholeRequiresConnected(t *testing.T) {
	b := graph.NewBuilder(0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := MeasureContext(context.Background(), b.Build(), Options{KeepWhole: true}); err == nil {
		t.Fatal("disconnected KeepWhole accepted")
	}
	if _, err := MeasureContext(context.Background(), &graph.Graph{}, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestMeasureSkipFlags(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rngFor(1))
	m, err := MeasureContext(context.Background(), g, Options{SkipSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Traces != nil {
		t.Fatal("sampling ran despite SkipSampling")
	}
	if m.SLEM == nil {
		t.Fatal("spectral skipped unexpectedly")
	}
	m2, err := MeasureContext(context.Background(), g, Options{SkipSpectral: true, Sources: 10, MaxWalk: 20})
	if err != nil {
		t.Fatal(err)
	}
	if m2.SLEM != nil {
		t.Fatal("spectral ran despite SkipSpectral")
	}
	if m2.Mu() != 1 {
		t.Fatalf("skipped µ = %v, want conservative 1", m2.Mu())
	}
	if len(m2.Traces) != 10 {
		t.Fatalf("%d traces", len(m2.Traces))
	}
}

func TestMeasureBruteForceSources(t *testing.T) {
	g := gen.Complete(25)
	m, err := MeasureContext(context.Background(), g, Options{Sources: 1000, MaxWalk: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Traces) != 25 {
		t.Fatalf("brute force should trace every vertex, got %d", len(m.Traces))
	}
}

func TestSlowGraphSlowerThanFastGraph(t *testing.T) {
	fast, err := MeasureContext(context.Background(), gen.BarabasiAlbert(400, 6, rngFor(2)), Options{Sources: 30, MaxWalk: 400})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MeasureContext(context.Background(), gen.RelaxedCaveman(40, 10, 0.02, rngFor(3)), Options{Sources: 30, MaxWalk: 400})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Mu() >= slow.Mu() {
		t.Fatalf("µ ordering: fast %v vs slow %v", fast.Mu(), slow.Mu())
	}
	eps := 0.1
	ft, _ := fast.SampledMixingTime(eps)
	st, _ := slow.SampledMixingTime(eps)
	if ft >= st {
		t.Fatalf("sampled mixing: fast %d vs slow %d", ft, st)
	}
	// The headline comparison: the slow graph's mixing time exceeds
	// the O(log n) the Sybil defenses assume.
	if st <= slow.FastMixingYardstick() {
		t.Fatalf("slow graph mixed within log n = %d (t = %d)", slow.FastMixingYardstick(), st)
	}
}

func TestConductanceBoundsSane(t *testing.T) {
	m, err := MeasureContext(context.Background(), gen.Barbell(12), Options{SkipSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Conductance()
	if lo < 0 || hi > 2 || lo > hi {
		t.Fatalf("conductance bounds [%v, %v]", lo, hi)
	}
	// Barbell conductance is tiny.
	if hi > 0.5 {
		t.Fatalf("barbell conductance upper bound %v too large", hi)
	}
}

func TestDistancesAtMatchesTraces(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, rngFor(4))
	m, err := MeasureContext(context.Background(), g, Options{Sources: 12, MaxWalk: 30})
	if err != nil {
		t.Fatal(err)
	}
	d := m.DistancesAt(7)
	if len(d) != 12 {
		t.Fatalf("%d distances", len(d))
	}
	want := markov.DistancesAt(m.Traces, 7)
	for i := range d {
		if d[i] != want[i] {
			t.Fatal("DistancesAt disagrees with markov aggregation")
		}
	}
}
