package whanau

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/walk"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x3a)) }

func TestBuildValidation(t *testing.T) {
	if _, err := Build(&graph.Graph{}, Config{W: 5}); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := gen.Complete(10)
	if _, err := Build(g, Config{W: 0}); err == nil {
		t.Fatal("W=0 accepted")
	}
}

func TestTableSizes(t *testing.T) {
	g := gen.Complete(100)
	d, err := Build(g, Config{W: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: 2·⌈√100⌉ = 20 fingers and successors.
	if len(d.nodes[0].fingers) != 20 || len(d.nodes[0].successors) != 20 {
		t.Fatalf("table sizes %d/%d, want 20/20",
			len(d.nodes[0].fingers), len(d.nodes[0].successors))
	}
	// Fingers sorted, successors ring-orderd after id.
	f := d.nodes[0].fingers
	for i := 1; i < len(f); i++ {
		if d.keys[f[i-1]] > d.keys[f[i]] {
			t.Fatal("fingers unsorted")
		}
	}
}

func TestLookupFindsOwnSample(t *testing.T) {
	// On a fast-mixing graph with ample walks, looking up a random
	// node's key from a random source succeeds with high probability.
	g := gen.BarabasiAlbert(400, 6, rng(2))
	d, err := Build(g, Config{W: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rate := d.SuccessRate(400, rng(4))
	if rate < 0.85 {
		t.Fatalf("success rate %v on fast-mixing graph", rate)
	}
	// The owner returned must actually hold the key.
	for i := 0; i < 50; i++ {
		tgt := d.KeyOf(graph.NodeID(rng(5).IntN(g.NumNodes())))
		if owner, _, ok := d.Lookup(0, tgt); ok && d.KeyOf(owner) != tgt {
			t.Fatal("lookup returned wrong owner")
		}
	}
}

func TestLookupDegradesWithShortWalks(t *testing.T) {
	// On a slow-mixing caveman graph, w=1 samples stay inside the
	// local clique, so cross-graph lookups fail far more often than
	// with long walks — the mixing-time dependence the paper probes.
	g, _ := graph.LargestComponent(gen.RelaxedCaveman(60, 8, 0.02, rng(6)))
	short, err := Build(g, Config{W: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Build(g, Config{W: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rShort := short.SuccessRate(300, rng(8))
	rLong := long.SuccessRate(300, rng(8))
	if rLong < rShort+0.2 {
		t.Fatalf("long walks (%v) not clearly better than short (%v)", rLong, rShort)
	}
}

func TestLookupDeterministicTables(t *testing.T) {
	g := gen.BarabasiAlbert(150, 4, rng(9))
	a, err := Build(g, Config{W: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Config{W: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.nodes {
		if a.nodes[v].id != b.nodes[v].id {
			t.Fatalf("node %d id differs across identical builds", v)
		}
	}
}

func TestQueriesBounded(t *testing.T) {
	g := gen.Complete(80)
	d, err := Build(g, Config{W: 2, Fingers: 9, Successors: 9, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	_, queries, _ := d.Lookup(0, 0xdeadbeef) // random target, likely miss
	if queries > 9 {
		t.Fatalf("%d queries with 9 fingers", queries)
	}
}

// refTables builds one length's tables the way the construction was
// first written — every sample its own walk.Endpoint call, tables of
// (key, owner) records — and returns each node's id and the owners of
// its fingers and successors in table order: the oracle BuildLengths'
// shared walks and owner-only tables are held to.
func refTables(g *graph.Graph, cfg Config) (ids []Key, fingers, successors [][]graph.NodeID) {
	type record struct {
		key   Key
		owner graph.NodeID
	}
	owners := func(rs []record) []graph.NodeID {
		out := make([]graph.NodeID, len(rs))
		for i, r := range rs {
			out[i] = r.owner
		}
		return out
	}
	n := g.NumNodes()
	cfg = cfg.withDefaults(n)
	r := rand.New(rand.NewPCG(cfg.Seed, 0x3a0a))
	keys := make([]Key, n)
	for v := range keys {
		keys[v] = Key(r.Uint64())
	}
	for v := 0; v < n; v++ {
		id := keys[walk.Endpoint(g, graph.NodeID(v), cfg.W, r)]
		var fs, cs []record
		for i := 0; i < cfg.Fingers; i++ {
			e := walk.Endpoint(g, graph.NodeID(v), cfg.W, r)
			fs = append(fs, record{key: keys[e], owner: e})
		}
		slices.SortFunc(fs, func(a, b record) int { return cmp.Compare(a.key, b.key) })
		for i := 0; i < cfg.SuccessorCandidates; i++ {
			e := walk.Endpoint(g, graph.NodeID(v), cfg.W, r)
			cs = append(cs, record{key: keys[e], owner: e})
		}
		slices.SortFunc(cs, func(a, b record) int {
			return cmp.Compare(ringDist(id, a.key), ringDist(id, b.key))
		})
		ids = append(ids, id)
		fingers = append(fingers, owners(fs))
		successors = append(successors, owners(cs[:min(len(cs), cfg.Successors)]))
	}
	return ids, fingers, successors
}

// TestBuildLengthsMatchesPerLengthBuild: one shared walk per sample
// must yield, at every length w = 1…64, exactly the tables (ids,
// owners, order) a per-length Build and the record-based reference
// construction yield, and the same lookup success, on the two graphs
// X7 sweeps.
func TestBuildLengthsMatchesPerLengthBuild(t *testing.T) {
	ws := make([]int, 64)
	for i := range ws {
		ws[i] = i + 1
	}
	for _, name := range []string{"facebook-A", "physics-1"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		full := d.Generate(0.001, 1)
		sub, _ := graph.BFSSubgraph(full, 0, 80)
		g, _ := graph.LargestComponent(sub)
		cfg := Config{Seed: 3}
		multi, err := BuildLengths(g, cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range ws {
			cfg.W = w
			single, err := Build(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids, fingers, successors := refTables(g, cfg)
			m := multi[k]
			if m.cfg != single.cfg || !slices.Equal(m.keys, single.keys) {
				t.Fatalf("%s w=%d: config %+v / keys differ from Build's %+v", name, w, m.cfg, single.cfg)
			}
			for v := range m.nodes {
				mn, sn := &m.nodes[v], &single.nodes[v]
				if mn.id != sn.id || mn.id != ids[v] {
					t.Fatalf("%s w=%d node %d: id %x, Build %x, reference %x", name, w, v, mn.id, sn.id, ids[v])
				}
				if !slices.Equal(mn.fingers, sn.fingers) || !slices.Equal(mn.fingers, fingers[v]) {
					t.Fatalf("%s w=%d node %d: fingers differ", name, w, v)
				}
				if !slices.Equal(mn.successors, sn.successors) || !slices.Equal(mn.successors, successors[v]) {
					t.Fatalf("%s w=%d node %d: successors differ", name, w, v)
				}
			}
			if a, b := m.SuccessRate(200, rng(uint64(w))), single.SuccessRate(200, rng(uint64(w))); a != b {
				t.Fatalf("%s w=%d: success rate %v vs Build's %v", name, w, a, b)
			}
		}
	}
}

func TestBuildLengthsValidation(t *testing.T) {
	g := gen.Complete(10)
	for _, ws := range [][]int{nil, {0}, {1, 0}, {4, 2}} {
		if _, err := BuildLengths(g, Config{Seed: 1}, ws); err == nil {
			t.Fatalf("walk lengths %v accepted", ws)
		}
	}
	ds, err := BuildLengths(g, Config{Seed: 1}, []int{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 || ds[0].cfg.W != 2 || ds[1].cfg.W != 2 || ds[2].cfg.W != 5 {
		t.Fatalf("built %d DHTs, want lengths 2, 2, 5", len(ds))
	}
}

// TestSelectNearestMatchesFullSort: the quickselect keeps exactly the
// first k entries of a full sort by distance, for every k, with
// repeated owners (one walk sample drawn several times) among the
// candidates.
func TestSelectNearestMatchesFullSort(t *testing.T) {
	r := rng(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(40)
		owners := 1 + r.IntN(n)
		dist := make([]uint64, owners)
		for i := range dist {
			dist[i] = r.Uint64N(1000)*1000 + uint64(i) // distinct per owner
		}
		all := make([]ringCand, n)
		for i := range all {
			o := r.IntN(owners)
			all[i] = ringCand{dist[o], graph.NodeID(o)}
		}
		want := slices.Clone(all)
		slices.SortFunc(want, func(a, b ringCand) int { return cmp.Compare(a.dist, b.dist) })
		for k := 1; k <= n; k++ {
			c := slices.Clone(all)
			selectNearest(c, k)
			if !slices.Equal(c[:k], want[:k]) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, c[:k], want[:k])
			}
		}
	}
}
