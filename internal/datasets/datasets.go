// Package datasets provides deterministic synthetic substitutes for
// the fifteen social graphs of the paper's Table 1. The originals are
// proprietary crawls (Mislove's Livejournal/Youtube, Wilson's
// Facebook A/B) or SNAP downloads unavailable offline, so each entry
// pairs the paper's reported metadata (nodes, edges, SLEM) with a
// generator whose output matches the dataset's size (scaled) and
// mixing character:
//
//   - trust graphs that require physical acquaintance (Physics
//     co-authorship, DBLP, Enron) → strong community structure,
//     slow mixing (relaxed caveman, pendant cliques);
//   - online graphs with loose trust (wiki-vote, Facebook) →
//     expander-like, fast mixing (preferential attachment);
//   - interaction graphs in between (Slashdot, Epinion, Youtube,
//     Livejournal) → preferential-attachment communities with sparse
//     bridges.
//
// Every measurement in the paper is a function of the graph's
// spectral profile and degree sequence, not of node identities, so
// substitutes calibrated this way preserve the paper's findings:
// which graphs mix slowly, by roughly what factor, and how trimming
// and sampling move the numbers.
package datasets

import (
	"fmt"
	"math/rand/v2"

	"mixtime/internal/gen"
	"mixtime/internal/graph"
)

// Kind classifies a dataset by the trust model of its edges — the
// axis the paper's §5 argues should parameterize Sybil defenses.
type Kind string

const (
	// Trust marks graphs whose edges imply physical acquaintance
	// (co-authorship); the paper finds these mix slowest.
	Trust Kind = "trust"
	// Interaction marks graphs whose edges require interaction but
	// not acquaintance (Livejournal, Youtube, Slashdot, Epinion).
	Interaction Kind = "interaction"
	// Online marks graphs with the loosest semantics (wiki-vote,
	// Facebook); the paper finds these mix fastest.
	Online Kind = "online"
)

// Meta records what the paper's Table 1 reports for a dataset.
type Meta struct {
	// Name is the paper's dataset label.
	Name string
	// PaperNodes and PaperEdges are the sizes in Table 1.
	PaperNodes int
	PaperEdges int64
	// PaperMu is the second largest eigenvalue modulus Table 1
	// reports (values reconstructed from the paper's narrative where
	// the scanned table is illegible).
	PaperMu float64
	// Kind is the trust classification.
	Kind Kind
	// Large marks the Figure-2 datasets (vs Figure-1 small ones).
	Large bool
	// Source cites the paper's data source.
	Source string
}

// Dataset couples paper metadata with its synthetic substitute.
type Dataset struct {
	Meta
	// generate builds the substitute at a node budget; callers use
	// Generate.
	generate func(n int, rng *rand.Rand) *graph.Graph
}

// Generate builds the substitute scaled to ≈ scale×PaperNodes nodes
// (minimum 200), extracts the largest connected component (the
// paper measures LCCs only — mixing is undefined otherwise) and
// returns it. Deterministic in (dataset, scale, seed).
func (d Dataset) Generate(scale float64, seed uint64) *graph.Graph {
	n := int(scale * float64(d.PaperNodes))
	if n < 200 {
		n = 200
	}
	rng := rand.New(rand.NewPCG(seed, hashName(d.Name)))
	g := d.generate(n, rng)
	lcc, _ := graph.LargestComponent(g)
	return lcc
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// All returns the fifteen Table-1 datasets in the paper's order.
func All() []Dataset { return registry }

// Small returns the Figure-1 datasets (small/medium graphs).
func Small() []Dataset { return filter(false) }

// Large returns the Figure-2 datasets (DBLP and the million-node
// graphs).
func Large() []Dataset { return filter(true) }

func filter(large bool) []Dataset {
	var out []Dataset
	for _, d := range registry {
		if d.Large == large {
			out = append(out, d)
		}
	}
	return out
}

// ByName looks a dataset up by its Table-1 label.
func ByName(name string) (Dataset, error) {
	for _, d := range registry {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names lists the registry labels in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// The generators below derive their parameters from the requested
// node budget so that the community count (and hence conductance and
// µ) stays roughly scale-invariant: communities keep their natural
// size and the number of communities grows with n.

// fastOnline: preferential attachment with high degree and a few weak
// communities — µ around 0.9.
func fastOnline(avgDeg int, communities int, bridgeFrac float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		size := n / communities
		if size < 50 {
			return gen.BarabasiAlbert(n, avgDeg/2, rng)
		}
		bridges := int(bridgeFrac * float64(n) * float64(avgDeg) / 2)
		return gen.CommunityBA(communities, size, avgDeg/2, bridges, rng)
	}
}

// slowTrust: relaxed caveman — dense cliques, sparse bridges, µ very
// close to 1.
func slowTrust(cliqueSize int, rewire float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		cliques := n / cliqueSize
		if cliques < 2 {
			cliques = 2
		}
		return gen.RelaxedCaveman(cliques, cliqueSize, rewire, rng)
	}
}

// interactionCommunities: BA communities with calibrated bridge
// budget — µ between the online and trust regimes.
func interactionCommunities(kAttach, communitySize int, bridgesPerCommunity float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		k := n / communitySize
		if k < 2 {
			k = 2
		}
		bridges := int(bridgesPerCommunity * float64(k))
		if bridges < k {
			bridges = k // keep it connectable
		}
		return gen.CommunityBA(k, communitySize, kAttach, bridges, rng)
	}
}

// dblpLike: caveman core plus pendant cliques of sizes 2..6 so that
// trim levels 1..5 shave the graph gradually, as Figure 6 reports for
// DBLP (615k → 145k between DBLP 1 and DBLP 5).
func dblpLike(cliqueSize int, rewire float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		// Budget: ~45% core, ~55% spread across pendant structures,
		// echoing DBLP's 76% size loss by trim level 5.
		coreN := int(0.45 * float64(n))
		cliques := coreN / cliqueSize
		if cliques < 2 {
			cliques = 2
		}
		b := graph.NewBuilder(n * cliqueSize / 2)
		gen.AddRelaxedCaveman(b, cliques, cliqueSize, rewire, rng)
		// Split the fringe budget over pendant structure sizes 1..5
		// (size s vanishes when trimming to min degree s+1).
		per := (n - b.NumNodes()) / 5
		gen.AddPendants(b, per, rng)     // degree 1
		gen.AddCliques(b, per/2, 2, rng) // pendant edges (degree 1-2)
		gen.AddCliques(b, per/3, 3, rng) // triangles (degree 2)
		gen.AddCliques(b, per/4, 4, rng) // K4 (degree 3)
		gen.AddCliques(b, per/5, 5, rng) // K5 (degree 4)
		return b.Build()
	}
}

// youtubeLike: power-law configuration with min degree 1 — a sparse
// hub-dominated graph with a large low-degree fringe.
func youtubeLike(gamma float64, maxDegFrac float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		maxDeg := int(maxDegFrac * float64(n))
		if maxDeg < 10 {
			maxDeg = 10
		}
		deg := gen.PowerLawDegrees(n, gamma, 1, maxDeg, rng)
		return gen.ConfigurationModel(deg, rng)
	}
}

// livejournalLike: strong planted communities — the slowest-mixing
// large graphs in the paper.
func livejournalLike(communitySize int, inDeg, outDeg float64) func(int, *rand.Rand) *graph.Graph {
	return func(n int, rng *rand.Rand) *graph.Graph {
		k := n / communitySize
		if k < 2 {
			k = 2
		}
		pIn := inDeg / float64(communitySize)
		pOut := outDeg / float64(n-communitySize)
		return gen.PlantedPartition(k, communitySize, pIn, pOut, rng)
	}
}

var registry = []Dataset{
	{Meta{"wiki-vote", 7_066, 100_736, 0.899, Online, false, "Leskovec et al. [8]"},
		fastOnline(28, 2, 0.05)},
	{Meta{"slashdot-2", 77_360, 546_487, 0.987, Interaction, false, "Leskovec et al. [10]"},
		interactionCommunities(7, 400, 30)},
	{Meta{"slashdot-1", 82_168, 504_230, 0.987, Interaction, false, "Leskovec et al. [10]"},
		interactionCommunities(6, 400, 30)},
	{Meta{"facebook", 63_731, 817_090, 0.982, Online, false, "Viswanath et al. [26]"},
		fastOnline(25, 4, 0.01)},
	{Meta{"physics-1", 4_158, 13_422, 0.998, Trust, false, "Leskovec et al. [9] (ca-GrQc)"},
		slowTrust(7, 0.03)},
	{Meta{"physics-2", 11_204, 117_619, 0.998, Trust, false, "Leskovec et al. [9] (ca-HepPh)"},
		slowTrust(21, 0.02)},
	{Meta{"physics-3", 8_638, 24_806, 0.996, Trust, false, "Leskovec et al. [9] (ca-HepTh)"},
		slowTrust(6, 0.04)},
	{Meta{"enron", 33_696, 180_811, 0.996, Interaction, false, "Leskovec et al. [9]"},
		interactionCommunities(5, 250, 8)},
	{Meta{"epinion", 75_877, 405_739, 0.998, Interaction, false, "Richardson et al. [20]"},
		interactionCommunities(5, 300, 5)},
	{Meta{"dblp", 614_981, 1_155_148, 0.997, Trust, true, "Ley [13]"},
		dblpLike(8, 0.02)},
	{Meta{"facebook-A", 1_000_000, 20_353_734, 0.992, Online, true, "Wilson et al. [28]"},
		fastOnline(40, 4, 0.008)},
	{Meta{"facebook-B", 1_000_000, 15_807_563, 0.992, Online, true, "Wilson et al. [28]"},
		fastOnline(31, 4, 0.008)},
	{Meta{"livejournal-A", 1_000_000, 26_151_771, 0.9998, Interaction, true, "Mislove et al. [14]"},
		livejournalLike(500, 50, 0.1)},
	{Meta{"livejournal-B", 1_000_000, 27_562_349, 0.9998, Interaction, true, "Mislove et al. [14]"},
		livejournalLike(500, 53, 0.12)},
	{Meta{"youtube", 1_134_890, 2_987_624, 0.998, Interaction, true, "Mislove et al. [14]"},
		youtubeLike(2.2, 0.01)},
}
