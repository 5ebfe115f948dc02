package mixtime

import (
	"context"
	"io"
	"math/rand/v2"

	"mixtime/internal/core"
	"mixtime/internal/datasets"
	"mixtime/internal/gen"
	"mixtime/internal/graph"
	"mixtime/internal/graphio"
	"mixtime/internal/markov"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
)

// Graph is a compact immutable simple undirected graph in CSR form.
type Graph = graph.Graph

// NodeID identifies a vertex of a Graph.
type NodeID = graph.NodeID

// Edge is an undirected edge.
type Edge = graph.Edge

// Builder accumulates (possibly directed, duplicated) edges and
// builds the symmetrized simple Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder with capacity for sizeHint edges.
func NewBuilder(sizeHint int) *Builder { return graph.NewBuilder(sizeHint) }

// FromEdges builds a graph with n nodes (0 infers the count) from an
// edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// LargestComponent extracts the largest connected component; the
// second value maps new IDs back to originals. The mixing time is
// only defined on connected graphs, so measure this.
func LargestComponent(g *Graph) (*Graph, []NodeID) { return graph.LargestComponent(g) }

// Trim iteratively removes nodes of degree < minDeg (the
// SybilGuard/SybilLimit preprocessing whose cost Figure 6 of the
// paper measures) and returns the result with an ID mapping.
func Trim(g *Graph, minDeg int) (*Graph, []NodeID) { return graph.Trim(g, minDeg) }

// BFSSample returns the subgraph induced by the first k nodes of a
// breadth-first search from start — the paper's procedure for cutting
// measurable samples out of million-node graphs.
func BFSSample(g *Graph, start NodeID, k int) (*Graph, []NodeID) {
	return graph.BFSSubgraph(g, start, k)
}

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// IsBipartite reports whether g is bipartite (in which case the plain
// random walk is periodic and never mixes; Measure handles this by
// switching to the lazy walk).
func IsBipartite(g *Graph) bool { return graph.IsBipartite(g) }

// Coreness returns each node's core number (the deepest Trim level it
// survives), in O(m).
func Coreness(g *Graph) []int { return graph.Coreness(g) }

// LoadGraph reads a graph from an edge-list or binary file (".gz"
// transparently decompressed).
func LoadGraph(path string) (*Graph, error) { return graphio.LoadFile(path) }

// SaveGraph writes a graph; ".mixg"/".mixg.gz" selects the binary
// format, anything else edge-list text.
func SaveGraph(path string, g *Graph) error { return graphio.SaveFile(path, g) }

// ReadEdgeList parses an edge-list stream.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graphio.ReadEdgeList(r) }

// WriteEdgeList writes g as edge-list text.
func WriteEdgeList(w io.Writer, g *Graph) error { return graphio.WriteEdgeList(w, g) }

// EdgeStream is a replayable lex-ordered edge producer — the input of
// SaveGraphStreamed. See graphio.EdgeStream for the full contract.
type EdgeStream = graphio.EdgeStream

// MappedGraph is a graph served from a memory-mapped MIXG snapshot;
// Close unmaps it. See graphio.MappedGraph for lifecycle rules.
type MappedGraph = graphio.MappedGraph

// LoadGraphMapped opens a graph with its adjacency memory-mapped from
// an uncompressed MIXG v2 snapshot (other formats load heap-backed).
func LoadGraphMapped(path string) (*MappedGraph, error) { return graphio.OpenMIXGMapped(path) }

// SaveGraphStreamed writes an n-node MIXG v2 snapshot from an edge
// stream without materializing the edge list or adjacency in RAM.
func SaveGraphStreamed(path string, n uint64, stream EdgeStream) error {
	return graphio.WriteMIXGStreamed(path, n, stream)
}

// --- Generators -----------------------------------------------------

// BarabasiAlbert generates a preferential-attachment graph with n
// nodes and k edges per new node — the standard model of fast-mixing
// online social graphs.
func BarabasiAlbert(n, k int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, k, rngFor(seed))
}

// ErdosRenyi generates G(n, p).
func ErdosRenyi(n int, p float64, seed uint64) *Graph {
	return gen.ErdosRenyi(n, p, rngFor(seed))
}

// WattsStrogatz generates the small-world model (ring lattice with k
// neighbours per side, rewiring probability beta).
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, beta, rngFor(seed))
}

// RingERStream streams a "ringer" small world (ring lattice of k
// nearest neighbours plus ER shortcuts with probability p) as a
// replayable lex-ordered edge stream. Feed it to SaveGraphStreamed to
// generate graphs far larger than RAM; see gen.RingER.
func RingERStream(n uint64, k int, p float64, seed uint64) EdgeStream {
	return gen.RingER(n, k, p, seed)
}

// RelaxedCaveman generates clustered clique chains — the model of
// slow-mixing trust graphs (co-authorship networks).
func RelaxedCaveman(numCliques, cliqueSize int, rewire float64, seed uint64) *Graph {
	return gen.RelaxedCaveman(numCliques, cliqueSize, rewire, rngFor(seed))
}

// PlantedPartition generates the stochastic block model with k
// communities of the given size.
func PlantedPartition(k, size int, pIn, pOut float64, seed uint64) *Graph {
	return gen.PlantedPartition(k, size, pIn, pOut, rngFor(seed))
}

// ForestFire generates the forest-fire model of Leskovec et al. with
// burn probability p — heavy-tailed, densifying, community-rich.
func ForestFire(n int, p float64, seed uint64) *Graph {
	return gen.ForestFire(n, p, rngFor(seed))
}

// Kleinberg generates Kleinberg's navigable small-world on a
// side×side torus with long-range exponent r (r = 2 is navigable).
func Kleinberg(side int, r float64, seed uint64) *Graph {
	return gen.Kleinberg(side, r, rngFor(seed))
}

// HolmeKim generates preferential attachment with triad formation
// probability pt — BA's heavy tail plus tunable clustering.
func HolmeKim(n, k int, pt float64, seed uint64) *Graph {
	return gen.HolmeKim(n, k, pt, rngFor(seed))
}

func rngFor(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x6d69785f74696d65)) }

// --- Datasets -------------------------------------------------------

// Dataset pairs a paper dataset's Table-1 metadata with its synthetic
// substitute generator.
type Dataset = datasets.Dataset

// Datasets returns the fifteen Table-1 dataset substitutes.
func Datasets() []Dataset { return datasets.All() }

// DatasetByName looks up a Table-1 dataset by label (e.g.
// "physics-1", "facebook-A").
func DatasetByName(name string) (Dataset, error) { return datasets.ByName(name) }

// --- Measurement ----------------------------------------------------

// Options configures Measure.
type Options = core.Options

// Measurement is the result of measuring a graph's mixing time both
// ways (spectral bound and direct sampling).
type Measurement = core.Measurement

// Measure runs the paper's methodology on g: largest-component
// extraction, SLEM estimation, and sampled per-source distance
// traces.
func Measure(g *Graph, opt Options) (*Measurement, error) {
	return core.MeasureContext(context.TODO(), g, opt)
}

// MeasureContext is Measure with cancellation: the SLEM iteration and
// every trace propagation check ctx, so a cancelled or expired
// context aborts promptly with an error wrapping ctx.Err().
func MeasureContext(ctx context.Context, g *Graph, opt Options) (*Measurement, error) {
	return core.MeasureContext(ctx, g, opt)
}

// DefaultOptions returns the canonical measurement options, including
// the conventional seed. A zero-valued Options is also usable: every
// field but Seed is defaulted, and Seed 0 is a valid seed.
func DefaultOptions() Options { return core.DefaultOptions() }

// Chain is the random walk on a graph as a Markov chain.
type Chain = markov.Chain

// Trace is a per-source record of total-variation distance after
// every walk length.
type Trace = markov.Trace

// NewChain constructs the random-walk chain for g; pass LazyWalk to
// get the (I+P)/2 walk that converges on bipartite graphs.
func NewChain(g *Graph, opts ...markov.Option) (*Chain, error) { return markov.New(g, opts...) }

// LazyWalk selects the lazy chain (I+P)/2 in NewChain.
func LazyWalk() markov.Option { return markov.Lazy() }

// TVDistance returns the total variation distance ½‖p−q‖₁.
func TVDistance(p, q []float64) float64 { return markov.TVDistance(p, q) }

// MixingTime applies the paper's Definition 1 to traces: the maximum
// over sources of the first walk length within eps.
func MixingTime(traces []*Trace, eps float64) (int, bool) { return markov.MixingTime(traces, eps) }

// --- Spectral -------------------------------------------------------

// SpectralEstimate is the result of a SLEM computation.
type SpectralEstimate = spectral.Estimate

// SpectralOptions configures SLEM estimation.
type SpectralOptions = spectral.Options

// SLEM estimates the second largest eigenvalue modulus of the
// transition matrix (Lanczos with power-iteration fallback).
func SLEM(g *Graph, opt SpectralOptions) (*SpectralEstimate, error) {
	return spectral.SLEMContext(context.TODO(), g, opt)
}

// SLEMContext is SLEM with cancellation threaded into the Lanczos and
// power iterations.
func SLEMContext(ctx context.Context, g *Graph, opt SpectralOptions) (*SpectralEstimate, error) {
	return spectral.SLEMContext(ctx, g, opt)
}

// SLEMPower estimates µ by deflated power iteration only.
func SLEMPower(g *Graph, opt SpectralOptions) (*SpectralEstimate, error) {
	return spectral.SLEMPowerContext(context.TODO(), g, opt)
}

// SLEMPowerContext is SLEMPower with cancellation checked every
// matrix-vector product.
func SLEMPowerContext(ctx context.Context, g *Graph, opt SpectralOptions) (*SpectralEstimate, error) {
	return spectral.SLEMPowerContext(ctx, g, opt)
}

// SpectralProfile returns the k largest eigenvalues of P below
// λ₁ = 1 (λ₂ ≥ … ≥ λ_{k+1}). The count near 1 is the spectral
// community count.
func SpectralProfile(g *Graph, k int, opt SpectralOptions) ([]float64, error) {
	return spectral.Profile(g, k, opt)
}

// MixingLowerBound is Sinclair's lower bound µ/(2(1−µ))·ln(1/2ε) on
// the mixing time (Theorem 2 of the paper).
func MixingLowerBound(mu, eps float64) float64 { return spectral.MixingLowerBound(mu, eps) }

// MixingUpperBound is Sinclair's upper bound (ln n + ln 1/ε)/(1−µ).
func MixingUpperBound(mu, eps float64, n int) float64 {
	return spectral.MixingUpperBound(mu, eps, n)
}

// FastMixingWalkLength returns ⌈ln n⌉, the walk length the
// Sybil-defense literature assumes suffices.
func FastMixingWalkLength(n int) int { return spectral.FastMixingWalkLength(n) }

// --- Sybil defenses -------------------------------------------------

// SybilLimitConfig parameterizes a SybilLimit run.
type SybilLimitConfig = sybil.Config

// SybilLimitProtocol is a configured SybilLimit deployment.
type SybilLimitProtocol = sybil.Protocol

// SybilLimitResult reports one verifier's admission decisions.
type SybilLimitResult = sybil.Result

// NewSybilLimit validates a SybilLimit configuration against g.
func NewSybilLimit(g *Graph, cfg SybilLimitConfig) (*SybilLimitProtocol, error) {
	return sybil.NewProtocol(g, cfg)
}

// AllHonest returns every node except the verifier, as a suspect set.
func AllHonest(g *Graph, verifier NodeID) []NodeID { return sybil.AllHonest(g, verifier) }

// SybilAttack wires a sybil region onto an honest region with g
// attack edges.
type SybilAttack = sybil.Attack

// NewSybilAttack builds an attack scenario.
func NewSybilAttack(honest, sybilRegion *Graph, attackEdges int, seed uint64) *SybilAttack {
	return sybil.NewAttack(honest, sybilRegion, attackEdges, rngFor(seed))
}

// RunSybilAttack executes SybilLimit under attack from an honest
// verifier.
func RunSybilAttack(a *SybilAttack, verifier NodeID, cfg SybilLimitConfig) (*sybil.AttackOutcome, error) {
	return sybil.RunAttack(a, verifier, cfg)
}
