package walk

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x1111)) }

func TestRandomWalkStaysOnEdges(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng(1))
	traj := Random(g, 0, 50, rng(2))
	if len(traj) != 51 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(traj[i-1], traj[i]) {
			t.Fatalf("step %d: %d->%d is not an edge", i, traj[i-1], traj[i])
		}
	}
}

func TestEndpointMatchesTrajectory(t *testing.T) {
	g := gen.Ring(11)
	a := Random(g, 3, 20, rng(7))
	b := Endpoint(g, 3, 20, rng(7))
	if a[len(a)-1] != b {
		t.Fatalf("trajectory end %d vs endpoint %d", a[len(a)-1], b)
	}
}

// TestEndpointsArePrefixesOfOneWalk: Endpoints at ascending lengths
// reads one walk's trajectory at each length — the same draws Random
// makes from the same rng state — and leaves rng where one Endpoint
// call would, however many lengths it serves.
func TestEndpointsArePrefixesOfOneWalk(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, rng(4))
	lengths := []int{0, 1, 1, 2, 5, 17, 64, 65}
	ends := make([]graph.NodeID, len(lengths))
	for seed := uint64(1); seed <= 20; seed++ {
		start := graph.NodeID(seed * 13 % 300)
		a, b := rng(seed), rng(seed)
		traj := Random(g, start, lengths[len(lengths)-1], a)
		Endpoints(g, start, lengths, b, ends)
		for k, l := range lengths {
			if ends[k] != traj[l] {
				t.Fatalf("seed %d: endpoint at length %d is %d, trajectory has %d", seed, l, ends[k], traj[l])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("seed %d: Endpoints left rng in a different state than Random", seed)
		}
	}
}

func TestEndpointDistributionOnCompleteGraph(t *testing.T) {
	// On K_n, one step lands uniformly on the n-1 others.
	g := gen.Complete(6)
	counts := map[graph.NodeID]int{}
	r := rng(4)
	const N = 30_000
	for i := 0; i < N; i++ {
		counts[Endpoint(g, 0, 1, r)]++
	}
	if counts[0] != 0 {
		t.Fatal("one-step walk stayed at source on K_n")
	}
	for v := graph.NodeID(1); v < 6; v++ {
		frac := float64(counts[v]) / N
		if math.Abs(frac-0.2) > 0.02 {
			t.Fatalf("endpoint %d frequency %v, want ≈0.2", v, frac)
		}
	}
}

func TestInstanceStepBijective(t *testing.T) {
	// For each node, the map (incoming slot → outgoing slot) must be a
	// bijection: every outgoing edge used exactly once.
	g := gen.BarabasiAlbert(100, 3, rng(5))
	in := NewInstance(g, 99)
	for v := 0; v < g.NumNodes(); v++ {
		at := graph.NodeID(v)
		used := map[graph.NodeID]int{}
		for _, from := range g.Neighbors(at) {
			used[in.Step(from, at)]++
		}
		if len(used) != g.Degree(at) {
			t.Fatalf("node %d: %d distinct outputs for %d inputs", v, len(used), g.Degree(at))
		}
		for next, c := range used {
			if c != 1 {
				t.Fatalf("node %d: output %d used %d times", v, next, c)
			}
			if !g.HasEdge(at, next) {
				t.Fatalf("node %d: output %d not a neighbor", v, next)
			}
		}
	}
}

func TestLazyMatchesInstance(t *testing.T) {
	g := gen.WattsStrogatz(150, 3, 0.3, rng(6))
	seed := uint64(424242)
	mat := NewInstance(g, seed)
	lazy := NewLazy(g, seed)
	for v := 0; v < g.NumNodes(); v++ {
		at := graph.NodeID(v)
		for _, from := range g.Neighbors(at) {
			a := mat.Step(from, at)
			b := lazy.Step(from, at)
			if a != b {
				t.Fatalf("node %d from %d: materialized %d vs lazy %d", at, from, a, b)
			}
		}
	}
}

func TestRouteConvergence(t *testing.T) {
	// Two routes that traverse the same directed edge continue
	// identically afterwards.
	g := gen.BarabasiAlbert(300, 4, rng(8))
	in := NewInstance(g, 7)
	// Route A from node 0 slot 0; route B enters A's second vertex via
	// the same directed edge — suffixes must coincide.
	trajA := RouteTrace(in, 0, 0, 20)
	// B starts at trajA[1] entered from trajA[0]: simulate by stepping
	// manually from that directed edge.
	from, at := trajA[0], trajA[1]
	for i := 1; i < 20; i++ {
		from, at = at, in.Step(from, at)
		if at != trajA[i+1] {
			t.Fatalf("routes diverged at step %d: %d vs %d", i, at, trajA[i+1])
		}
	}
}

func TestRouteDeterministicPerInstance(t *testing.T) {
	g := gen.CommunityBA(3, 60, 3, 10, rng(9))
	lcc, _ := graph.LargestComponent(g)
	in1 := NewInstance(lcc, 1)
	in2 := NewInstance(lcc, 1)
	in3 := NewInstance(lcc, 2)
	tail1 := Route(in1, 5, 0, 15)
	tail2 := Route(in2, 5, 0, 15)
	if tail1 != tail2 {
		t.Fatal("same seed produced different routes")
	}
	// Different seeds should (overwhelmingly) differ somewhere.
	diff := false
	for v := 0; v < lcc.NumNodes() && !diff; v++ {
		if Route(in1, graph.NodeID(v), 0, 15) != Route(in3, graph.NodeID(v), 0, 15) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("independent instances produced identical routes everywhere")
	}
}

func TestRouteTraceOnEdges(t *testing.T) {
	g := gen.Grid(10, 10)
	in := NewInstance(g, 77)
	traj := RouteTrace(in, 0, 0, 30)
	if len(traj) != 31 {
		t.Fatalf("trace length %d", len(traj))
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(traj[i-1], traj[i]) {
			t.Fatalf("trace step %d not an edge", i)
		}
	}
	tail := Route(in, 0, 0, 30)
	if tail.From != traj[29] || tail.To != traj[30] {
		t.Fatalf("tail %v vs trace end %v->%v", tail, traj[29], traj[30])
	}
}

func TestRandomRouteUsesAllFirstSlots(t *testing.T) {
	g := gen.Complete(5)
	in := NewInstance(g, 3)
	r := rng(10)
	firsts := map[graph.NodeID]bool{}
	for i := 0; i < 200; i++ {
		tr := RouteTrace(in, 0, r.IntN(g.Degree(0)), 1)
		firsts[tr[1]] = true
	}
	if len(firsts) != 4 {
		t.Fatalf("only %d distinct first hops on K5", len(firsts))
	}
}

// Property: on any connected generated graph, every node's slot
// permutation is a bijection and routes never leave the edge set.
func TestQuickRouteInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.BarabasiAlbert(60+int(seed%60), 2, rng(seed))
		in := NewInstance(g, seed^0xdead)
		// Bijectivity at a few sampled nodes.
		r := rng(seed + 1)
		for k := 0; k < 10; k++ {
			at := graph.NodeID(r.IntN(g.NumNodes()))
			seen := map[graph.NodeID]bool{}
			for _, from := range g.Neighbors(at) {
				seen[in.Step(from, at)] = true
			}
			if len(seen) != g.Degree(at) {
				return false
			}
		}
		// Route validity.
		traj := RouteTrace(in, 0, 0, 25)
		for i := 1; i < len(traj); i++ {
			if !g.HasEdge(traj[i-1], traj[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInstanceRoutes(b *testing.B) {
	g := gen.BarabasiAlbert(10_000, 5, rng(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := NewInstance(g, uint64(i))
		for v := 0; v < 1000; v++ {
			Route(in, graph.NodeID(v), 0, 10)
		}
	}
}

func BenchmarkLazyRoutes(b *testing.B) {
	g := gen.BarabasiAlbert(10_000, 5, rng(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLazy(g, uint64(i))
		for v := 0; v < 1000; v++ {
			Route(l, graph.NodeID(v), 0, 10)
		}
	}
}
