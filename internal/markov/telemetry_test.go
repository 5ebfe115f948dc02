package markov

import (
	"context"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// TestStepNilCollectorNoAllocs pins the zero-overhead contract: a
// chain built without WithCollector must take the nil-check fast path
// in Step and allocate nothing per call.
func TestStepNilCollectorNoAllocs(t *testing.T) {
	g := connectedRandom(2_000, 8_000, 1)
	c := mustChain(t, g)
	p := c.Delta(0)
	q := make([]float64, g.NumNodes())
	scratch := make([]float64, g.NumNodes())
	allocs := testing.AllocsPerRun(100, func() {
		c.Step(q, p, scratch)
		p, q = q, p
	})
	if allocs != 0 {
		t.Fatalf("Step with nil collector allocated %.1f objects/op, want 0", allocs)
	}
}

// TestStepCollectorByteIdentity verifies that instrumentation never
// perturbs the numerics: the same step sequence with and without a
// collector yields bit-identical distributions, and the collector
// counts one matvec (2m scanned adjacency slots) per Step.
func TestStepCollectorByteIdentity(t *testing.T) {
	g := connectedRandom(500, 2_000, 7)
	plain := mustChain(t, g)
	col := telemetry.New()
	instr := mustChain(t, g, WithCollector(col))

	n := g.NumNodes()
	p1, p2 := plain.Delta(3), instr.Delta(3)
	q1, q2 := make([]float64, n), make([]float64, n)
	s1, s2 := make([]float64, n), make([]float64, n)
	const steps = 25
	for i := 0; i < steps; i++ {
		plain.Step(q1, p1, s1)
		instr.Step(q2, p2, s2)
		for v := range q1 {
			if q1[v] != q2[v] {
				t.Fatalf("step %d vertex %d: %v != %v (instrumentation changed output)", i, v, q1[v], q2[v])
			}
		}
		p1, q1 = q1, p1
		p2, q2 = q2, p2
	}

	snap := col.Snapshot()
	if got := snap.Get(telemetry.Matvecs); got != steps {
		t.Errorf("matvecs = %d, want %d", got, steps)
	}
	wantEdges := int64(steps) * 2 * g.NumEdges()
	if got := snap.Get(telemetry.EdgesScanned); got != wantEdges {
		t.Errorf("edges_scanned = %d, want %d", got, wantEdges)
	}
	if snap.GetGauge(telemetry.MaxGraphAdjacency) != 2*g.NumEdges() {
		t.Errorf("max_graph_adjacency = %d, want %d", snap.GetGauge(telemetry.MaxGraphAdjacency), 2*g.NumEdges())
	}
}

// TestTraceCollectorCounts checks trace-level counters: a full trace
// records its per-source steps and completion, and the blocked path
// counts SpMM block passes instead of per-source matvecs.
func TestTraceCollectorCounts(t *testing.T) {
	g := connectedRandom(200, 800, 3)
	col := telemetry.New()
	c := mustChain(t, g, WithCollector(col))

	const maxT = 12
	c.TraceFrom(0, maxT)
	snap := col.Snapshot()
	if got := snap.Get(telemetry.SourceSteps); got != maxT {
		t.Errorf("source_steps after one trace = %d, want %d", got, maxT)
	}
	if got := snap.Get(telemetry.TracesCompleted); got != 1 {
		t.Errorf("traces_completed = %d, want 1", got)
	}

	col.Reset()
	sources := []graph.NodeID{0, 1, 2, 3}
	if _, err := c.TraceSampleBlockedContext(context.Background(), sources, maxT, len(sources), 1, nil); err != nil {
		t.Fatal(err)
	}
	snap = col.Snapshot()
	if got := snap.Get(telemetry.SpMMBlocks); got != maxT {
		t.Errorf("spmm_blocks = %d, want %d (one blocked pass per step)", got, maxT)
	}
	if got := snap.Get(telemetry.TracesCompleted); got != int64(len(sources)) {
		t.Errorf("traces_completed = %d, want %d", got, len(sources))
	}
	if got := snap.Get(telemetry.SourceSteps); got != int64(maxT*len(sources)) {
		t.Errorf("source_steps = %d, want %d", got, maxT*len(sources))
	}
}
