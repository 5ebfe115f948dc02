package evolve

import (
	"math/rand/v2"
	"testing"

	"mixtime/internal/graph"
	"mixtime/internal/telemetry"
)

// ringGraph builds a cycle on n nodes — connected, every degree 2.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

func TestApplyInsertDelete(t *testing.T) {
	mg := NewMutable(ringGraph(8))
	if v := mg.Version(); v != 0 {
		t.Fatalf("fresh version = %d, want 0", v)
	}
	res, err := mg.Apply(Batch{
		Insert: []graph.Edge{{U: 0, V: 4}, {U: 2, V: 6}},
		Delete: []graph.Edge{{U: 0, V: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Inserted != 2 || res.Deleted != 1 {
		t.Fatalf("result = %+v, want version 1, 2 inserted, 1 deleted", res)
	}
	g, ver := mg.Snapshot()
	if ver != 1 {
		t.Fatalf("snapshot version = %d, want 1", ver)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("epoch 1 invalid: %v", err)
	}
	if !g.HasEdge(0, 4) || !g.HasEdge(2, 6) || g.HasEdge(0, 1) {
		t.Fatal("batch not reflected in epoch 1")
	}
	if res.Edges != 9 {
		t.Fatalf("edges = %d, want 9 (8 ring + 2 − 1)", res.Edges)
	}
}

func TestApplyNoOpsExcludedFromCounts(t *testing.T) {
	mg := NewMutable(ringGraph(6))
	res, err := mg.Apply(Batch{
		Insert: []graph.Edge{
			{U: 0, V: 1}, // already present
			{U: 3, V: 3}, // self-loop
			{U: 1, V: 4}, // real
			{U: 4, V: 1}, // duplicate of the above (reversed)
			{U: 2, V: 5}, // deleted in the same batch: delete wins
		},
		Delete: []graph.Edge{
			{U: 2, V: 5}, // absent — a no-op delete
			{U: 3, V: 4}, // real
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("result = %+v, want exactly 1 inserted and 1 deleted", res)
	}
	if res.Version != 1 {
		t.Fatalf("no-ops must still bump the version once: got %d", res.Version)
	}
	g, _ := mg.Snapshot()
	if g.HasEdge(2, 5) {
		t.Fatal("delete must win over insert within one batch")
	}
}

func TestApplyGrowsNodeRange(t *testing.T) {
	mg := NewMutable(ringGraph(4))
	res, err := mg.Apply(Batch{Insert: []graph.Edge{{U: 3, V: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 10 {
		t.Fatalf("nodes = %d, want 10 after inserting edge to node 9", res.Nodes)
	}
	g, _ := mg.Snapshot()
	if err := g.Validate(); err != nil {
		t.Fatalf("grown epoch invalid: %v", err)
	}
	if g.NumNodes() != 10 || g.Degree(9) != 1 || g.Degree(3) != 3 {
		t.Fatalf("grown epoch degrees: n=%d deg(9)=%d deg(3)=%d", g.NumNodes(), g.Degree(9), g.Degree(3))
	}
}

func TestSnapshotImmutableAcrossMutation(t *testing.T) {
	mg := NewMutable(ringGraph(5))
	old, oldVer := mg.Snapshot()
	if _, err := mg.Apply(Batch{Insert: []graph.Edge{{U: 0, V: 2}}}); err != nil {
		t.Fatal(err)
	}
	if oldVer != 0 || old.HasEdge(0, 2) || old.NumEdges() != 5 {
		t.Fatal("pre-mutation snapshot changed under the caller")
	}
	cur, ver := mg.Snapshot()
	if ver != 1 || !cur.HasEdge(0, 2) {
		t.Fatal("post-mutation snapshot missing the insert")
	}
}

// checkInvariants asserts the consistency contract after a batch:
// CSR validity and the tracked edge count agreeing with the epoch.
func checkInvariants(t *testing.T, mg *MutableGraph) {
	t.Helper()
	g, _ := mg.Snapshot()
	if err := g.Validate(); err != nil {
		t.Fatalf("epoch invalid: %v", err)
	}
	if got, want := mg.NumEdges(), g.NumEdges(); got != want {
		t.Fatalf("tracked edge count %d != graph %d", got, want)
	}
}

// applyRandomBatches drives rounds random insert/delete batches drawn
// from rng through mg, checking the full invariant set after each.
func applyRandomBatches(t *testing.T, mg *MutableGraph, rng *rand.Rand, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		n := mg.NumNodes()
		var b Batch
		for i := rng.IntN(6); i > 0; i-- {
			// Occasionally reference a node just past the range to
			// exercise growth; mostly stay inside.
			hi := n
			if rng.IntN(8) == 0 {
				hi = n + 2
			}
			b.Insert = append(b.Insert, graph.Edge{
				U: graph.NodeID(rng.IntN(hi)),
				V: graph.NodeID(rng.IntN(hi)),
			})
		}
		g, _ := mg.Snapshot()
		for i := rng.IntN(4); i > 0; i-- {
			// Bias deletes toward existing edges so they actually fire.
			u := graph.NodeID(rng.IntN(n))
			if nbrs := g.Neighbors(u); len(nbrs) > 0 && rng.IntN(3) > 0 {
				b.Delete = append(b.Delete, graph.Edge{U: u, V: nbrs[rng.IntN(len(nbrs))]})
			} else {
				b.Delete = append(b.Delete, graph.Edge{U: u, V: graph.NodeID(rng.IntN(n))})
			}
		}
		before := mg.Version()
		if _, err := mg.Apply(b); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if mg.Version() != before+1 {
			t.Fatalf("round %d: version %d → %d, want +1", r, before, mg.Version())
		}
		checkInvariants(t, mg)
	}
}

func TestFuzzedBatchesKeepCSRValid(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewPCG(seed, 0xfe11))
		mg := NewMutable(ringGraph(12 + int(seed%9)))
		applyRandomBatches(t, mg, rng, 40)
	}
}

// FuzzApply is the native-fuzzing entry for the same invariants: the
// fuzzer picks the PCG seed and batch count, the invariant checks do
// the judging. `go test` runs the seed corpus; `go test -fuzz=Apply`
// explores.
func FuzzApply(f *testing.F) {
	f.Add(uint64(1), uint8(5))
	f.Add(uint64(99), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint8) {
		rng := rand.New(rand.NewPCG(seed, 0xfe12))
		mg := NewMutable(ringGraph(8))
		applyRandomBatches(t, mg, rng, int(rounds%32))
	})
}

func TestTelemetryCountsChurn(t *testing.T) {
	col := telemetry.New()
	mg := NewMutable(ringGraph(6))
	mg.SetCollector(col)
	if _, err := mg.Apply(Batch{
		Insert: []graph.Edge{{U: 0, V: 3}, {U: 1, V: 4}},
		Delete: []graph.Edge{{U: 2, V: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := col.Count(telemetry.EvolveEpochs); got != 1 {
		t.Fatalf("evolve_epochs = %d, want 1", got)
	}
	if got := col.Count(telemetry.EvolveEdgesInserted); got != 2 {
		t.Fatalf("evolve_edges_inserted = %d, want 2", got)
	}
	if got := col.Count(telemetry.EvolveEdgesDeleted); got != 1 {
		t.Fatalf("evolve_edges_deleted = %d, want 1", got)
	}
}

func TestBatchHelpers(t *testing.T) {
	g := ringGraph(20)
	rng := rand.New(rand.NewPCG(3, 0xabcd))

	grow := GrowRandom(g, 10, rng)
	if len(grow.Insert) != 10 {
		t.Fatalf("GrowRandom produced %d edges, want 10", len(grow.Insert))
	}
	seen := map[uint64]bool{}
	for _, e := range grow.Insert {
		if e.U == e.V || g.HasEdge(e.U, e.V) {
			t.Fatalf("GrowRandom produced loop or present edge {%d,%d}", e.U, e.V)
		}
		if seen[edgeKey(e.U, e.V)] {
			t.Fatalf("GrowRandom produced duplicate {%d,%d}", e.U, e.V)
		}
		seen[edgeKey(e.U, e.V)] = true
	}

	atk := AttackEdges(g, 10, 6, rng)
	if len(atk.Insert) != 6 {
		t.Fatalf("AttackEdges produced %d edges, want 6", len(atk.Insert))
	}
	for _, e := range atk.Insert {
		lo, hi := e.U, e.V
		if lo > hi {
			lo, hi = hi, lo
		}
		if int(lo) >= 10 || int(hi) < 10 {
			t.Fatalf("attack edge {%d,%d} does not cross the region boundary", e.U, e.V)
		}
	}
}

func TestGrowRandomExhaustedGraph(t *testing.T) {
	// K4: no absent edge exists; the sampler must come back short
	// rather than spin.
	b := graph.NewBuilder(6)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	got := GrowRandom(b.Build(), 3, rand.New(rand.NewPCG(1, 2)))
	if len(got.Insert) != 0 {
		t.Fatalf("complete graph grew %d edges", len(got.Insert))
	}
}
