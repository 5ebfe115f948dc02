package community

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xc0)) }

func TestLabelsHelpers(t *testing.T) {
	l := Labels{5, 5, 9, 5, 2}
	if l.NumCommunities() != 3 {
		t.Fatalf("%d communities", l.NumCommunities())
	}
	k := l.Normalize()
	if k != 3 || l[0] != 0 || l[2] != 1 || l[4] != 2 {
		t.Fatalf("normalized %v (k=%d)", l, k)
	}
}

func TestModularityKnownValues(t *testing.T) {
	// Two disjoint triangles joined by nothing: labeling by triangle
	// has Q = 1 - 2·(1/2)² = 0.5.
	b := graph.NewBuilder(0)
	for _, base := range []graph.NodeID{0, 3} {
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
		b.AddEdge(base+2, base)
	}
	g := b.Build()
	q := Modularity(g, Labels{0, 0, 0, 1, 1, 1})
	if math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q = %v, want 0.5", q)
	}
	// All-in-one labeling: Q = 0.
	if q := Modularity(g, Labels{0, 0, 0, 0, 0, 0}); math.Abs(q) > 1e-12 {
		t.Fatalf("single-community Q = %v", q)
	}
	// Singleton labeling on K4: strictly negative.
	k4 := gen.Complete(4)
	if q := Modularity(k4, Labels{0, 1, 2, 3}); q >= 0 {
		t.Fatalf("singleton Q = %v", q)
	}
}

func TestLabelPropagationFindsPlantedCommunities(t *testing.T) {
	g := gen.PlantedPartition(4, 50, 0.3, 0.002, rng(1))
	lcc, orig := graph.LargestComponent(g)
	labels := LabelPropagation(lcc, 100, rng(2))
	q := Modularity(lcc, labels)
	if q < 0.5 {
		t.Fatalf("LPA modularity %v on strongly planted partition", q)
	}
	// Nodes from the same planted block should mostly share labels.
	agree, total := 0, 0
	for i := 0; i < lcc.NumNodes(); i++ {
		for j := i + 1; j < i+10 && j < lcc.NumNodes(); j++ {
			if int(orig[i])/50 == int(orig[j])/50 {
				total++
				if labels[i] == labels[j] {
					agree++
				}
			}
		}
	}
	if total > 0 && float64(agree)/float64(total) < 0.8 {
		t.Fatalf("within-block agreement %v", float64(agree)/float64(total))
	}
}

func TestLouvainFindsPlantedCommunities(t *testing.T) {
	g := gen.PlantedPartition(4, 50, 0.3, 0.002, rng(3))
	lcc, _ := graph.LargestComponent(g)
	labels := Louvain(lcc, rng(4))
	q := Modularity(lcc, labels)
	if q < 0.6 {
		t.Fatalf("Louvain modularity %v", q)
	}
	k := labels.NumCommunities()
	if k < 3 || k > 12 {
		t.Fatalf("Louvain found %d communities, planted 4", k)
	}
}

func TestLouvainBeatsTrivialLabelings(t *testing.T) {
	g := gen.RelaxedCaveman(10, 8, 0.1, rng(5))
	lcc, _ := graph.LargestComponent(g)
	labels := Louvain(lcc, rng(6))
	q := Modularity(lcc, labels)
	single := make(Labels, lcc.NumNodes())
	if q <= Modularity(lcc, single) {
		t.Fatalf("Louvain Q=%v no better than single community", q)
	}
	singletons := make(Labels, lcc.NumNodes())
	for i := range singletons {
		singletons[i] = int32(i)
	}
	if q <= Modularity(lcc, singletons) {
		t.Fatalf("Louvain Q=%v no better than singletons", q)
	}
}

func TestLouvainOnCliqueIsOneCommunity(t *testing.T) {
	labels := Louvain(gen.Complete(12), rng(7))
	if labels.NumCommunities() != 1 {
		t.Fatalf("K12 split into %d communities", labels.NumCommunities())
	}
}

func TestDetectorsOnEmptyAndTinyGraphs(t *testing.T) {
	empty := &graph.Graph{}
	if l := Louvain(empty, rng(8)); len(l) != 0 {
		t.Fatal("empty Louvain labels")
	}
	if l := LabelPropagation(empty, 10, rng(8)); len(l) != 0 {
		t.Fatal("empty LPA labels")
	}
	edge := gen.Path(2)
	l := Louvain(edge, rng(9))
	if len(l) != 2 {
		t.Fatalf("path labels %v", l)
	}
}

func TestFastMixingGraphHasLowModularity(t *testing.T) {
	// The spectral story in reverse: an expander-like BA graph should
	// admit only weak communities compared to the caveman graph.
	ba := gen.BarabasiAlbert(400, 5, rng(10))
	cave, _ := graph.LargestComponent(gen.RelaxedCaveman(50, 8, 0.05, rng(11)))
	qBA := Modularity(ba, Louvain(ba, rng(12)))
	qCave := Modularity(cave, Louvain(cave, rng(13)))
	if qBA >= qCave {
		t.Fatalf("BA Q=%v not below caveman Q=%v", qBA, qCave)
	}
	if qCave < 0.7 {
		t.Fatalf("caveman Q=%v unexpectedly low", qCave)
	}
}

// TestDetectorsRepeatInProcess runs each detector 20 times with one
// seed in one process: the labels and the modularity bits must repeat
// exactly, which Go's randomized map iteration order would break.
func TestDetectorsRepeatInProcess(t *testing.T) {
	d, err := datasets.ByName("physics-1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.01, 1)
	detectors := []struct {
		name string
		run  func() Labels
	}{
		{"louvain", func() Labels { return Louvain(g, rng(14)) }},
		{"label-propagation", func() Labels { return LabelPropagation(g, 100, rng(15)) }},
	}
	for _, det := range detectors {
		want := det.run()
		wantQ := math.Float64bits(Modularity(g, want))
		for i := 1; i < 20; i++ {
			got := det.run()
			if !slices.Equal(got, want) {
				t.Errorf("%s: repeat %d labels differ", det.name, i)
				break
			}
			if q := math.Float64bits(Modularity(g, got)); q != wantQ {
				t.Errorf("%s: repeat %d modularity bits %#x, want %#x", det.name, i, q, wantQ)
				break
			}
		}
	}
}
