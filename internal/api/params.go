package api

import (
	"fmt"
	"math"
	"strings"
)

// The canonical experiment and query defaults. Every layer that used
// to carry its own copy (core.Options, runner.Config, the CLI flag
// defaults, cliutil's dataset references) now reads this single set.
//
// The values follow the evaluation harness: Scale 0.01 turns the
// paper's million-node graphs into ~10k-node substitutes, Sources 200
// approximates the paper's 1000-source sampling at reproduction
// scale, MaxWalk 500 is the paper's longest probe, SpectralTol 1e-7
// resolves µ to more digits than Table 1 reports, and Eps 0.1 is the
// variation-distance threshold the paper's headline numbers quote.
const (
	// DefaultScale multiplies every dataset's node count.
	DefaultScale = 0.01
	// DefaultSeed is the conventional seed: the CLIs' -seed flags and
	// core.DefaultOptions start from it. WithDefaults never applies it,
	// so a zero Seed set explicitly on a Params is a valid seed and is
	// never rewritten.
	DefaultSeed = 1
	// DefaultSources is the number of sampled start vertices for
	// direct measurements.
	DefaultSources = 200
	// DefaultMaxWalk caps propagated walk lengths (and doubles as the
	// SybilLimit route length W for admission queries).
	DefaultMaxWalk = 500
	// DefaultSpectralTol is the SLEM eigenvalue tolerance.
	DefaultSpectralTol = 1e-7
	// DefaultBlockSize is the number of source distributions a blocked
	// trace propagation (SpMM) serves per CSR pass: eight doubles per
	// source fills one 64-byte cache line, amortizing every adjacency
	// index load across a full line of right-hand sides.
	DefaultBlockSize = 8
	// DefaultEps is the variation-distance threshold ε for per-source
	// mixing-time CDF queries.
	DefaultEps = 0.1
	// DefaultDistShards is the simulated worker count for distributed
	// (distmix) estimates. Like Workers it never changes the output —
	// only the communication accounting — so it is excluded from
	// result fingerprints.
	DefaultDistShards = 8
	// DefaultDistWalks is the walker population per graph node a
	// distmix estimate launches from each source: 64 walks per node
	// puts the sampling noise floor a factor below DefaultEps, so the
	// debiased ℓ1 estimate tracks the exact propagated distance.
	DefaultDistWalks = 64
	// DefaultDistRounds caps the supersteps per distmix source; it
	// matches DefaultMaxWalk because a superstep advances every walk
	// one step.
	DefaultDistRounds = DefaultMaxWalk
)

// Method names a SLEM solver.
const (
	MethodLanczos = "lanczos"
	MethodPower   = "power"
)

// DefaultEpsList is the ε grid bounds queries sweep when the request
// does not name one.
func DefaultEpsList() []float64 { return []float64{0.25, 0.1, 0.01} }

// Params is the single validated parameter surface shared by the
// mixtimed daemon, the mixload client, and cmd/paperfigs flag
// parsing. It replaces the three overlapping knob surfaces
// (core.Options, spectral.Options, runner.Config) at every process
// boundary; those structs survive as internal carriers that the
// bridging helpers (runner.ConfigFromParams and the service query
// layer) fill from a Params.
//
// JSON names are part of the versioned wire schema: they are stable,
// snake_case, and pinned by TestParamsWireNames.
type Params struct {
	// Scale multiplies every dataset's node count when a graph is
	// generated from the Table-1 registry (default DefaultScale).
	// Loaded snapshot graphs ignore it.
	Scale float64 `json:"scale,omitempty"`
	// Seed makes runs deterministic. Zero is a valid seed: defaults
	// never overwrite it (DefaultSeed is the conventional seed 1).
	Seed uint64 `json:"seed"`
	// Sources is the number of start vertices for direct measurements
	// and the suspect-sample size for admission queries (default
	// DefaultSources).
	Sources int `json:"sources,omitempty"`
	// MaxWalk caps propagated walk lengths; admission queries use it
	// as the SybilLimit route length W (default DefaultMaxWalk).
	MaxWalk int `json:"max_walk,omitempty"`
	// SpectralTol is the SLEM tolerance (default DefaultSpectralTol).
	SpectralTol float64 `json:"spectral_tol,omitempty"`
	// BlockSize is the number of source distributions propagated per
	// blocked CSR pass (default DefaultBlockSize). Output is
	// byte-identical for any value, so it is excluded from result
	// fingerprints.
	BlockSize int `json:"block_size,omitempty"`
	// Workers bounds kernel parallelism (0 = auto, 1 = sequential).
	// Output is byte-identical for any value, so it is excluded from
	// result fingerprints.
	Workers int `json:"workers,omitempty"`
	// Method selects the SLEM solver for slem queries: MethodLanczos
	// (default) or MethodPower.
	Method string `json:"method,omitempty"`
	// Eps is the variation-distance threshold for cdf queries
	// (default DefaultEps).
	Eps float64 `json:"eps,omitempty"`
	// EpsList is the ε grid for bounds queries (default
	// DefaultEpsList).
	EpsList []float64 `json:"eps_list,omitempty"`
	// DistShards is the simulated worker count for distmix queries
	// (default DefaultDistShards). The estimate is bit-identical for
	// any value — only the reported communication cost moves — so it
	// is excluded from result fingerprints like Workers and BlockSize.
	DistShards int `json:"dist_shards,omitempty"`
	// DistWalks is the distmix walker population per graph node
	// (default DefaultDistWalks). It changes the estimate's noise
	// floor, hence the output, hence the fingerprint.
	DistWalks int `json:"dist_walks,omitempty"`
	// DistRounds caps supersteps per distmix source (default
	// DefaultDistRounds). Output-determining, fingerprinted.
	DistRounds int `json:"dist_rounds,omitempty"`
}

// WithDefaults fills unset (zero or negative) fields with the
// canonical defaults. Seed is deliberately left alone: zero is a
// usable seed, not a sentinel. Workers stays zero ("auto").
func (p Params) WithDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = DefaultScale
	}
	if p.Sources <= 0 {
		p.Sources = DefaultSources
	}
	if p.MaxWalk <= 0 {
		p.MaxWalk = DefaultMaxWalk
	}
	if p.SpectralTol <= 0 {
		p.SpectralTol = DefaultSpectralTol
	}
	if p.BlockSize <= 0 {
		p.BlockSize = DefaultBlockSize
	}
	if p.Method == "" {
		p.Method = MethodLanczos
	}
	if p.Eps <= 0 {
		p.Eps = DefaultEps
	}
	if len(p.EpsList) == 0 {
		p.EpsList = DefaultEpsList()
	}
	if p.DistShards <= 0 {
		p.DistShards = DefaultDistShards
	}
	if p.DistWalks <= 0 {
		p.DistWalks = DefaultDistWalks
	}
	if p.DistRounds <= 0 {
		p.DistRounds = DefaultDistRounds
	}
	return p
}

// Validate reports the first invalid field. It accepts unset (zero)
// fields — WithDefaults fills those — and rejects values that no
// layer could interpret: negative knobs, ε outside (0, 1), an unknown
// solver name.
func (p Params) Validate() error {
	if p.Scale < 0 || !finite(p.Scale) {
		return fmt.Errorf("api: scale %v must be finite and positive", p.Scale)
	}
	if p.Sources < 0 {
		return fmt.Errorf("api: sources %d must be positive", p.Sources)
	}
	if p.MaxWalk < 0 {
		return fmt.Errorf("api: max_walk %d must be positive", p.MaxWalk)
	}
	if p.SpectralTol < 0 || !finite(p.SpectralTol) {
		return fmt.Errorf("api: spectral_tol %v must be finite and positive", p.SpectralTol)
	}
	if p.BlockSize < 0 {
		return fmt.Errorf("api: block_size %d must be positive", p.BlockSize)
	}
	if p.Workers < 0 {
		return fmt.Errorf("api: workers %d must be non-negative", p.Workers)
	}
	switch p.Method {
	case "", MethodLanczos, MethodPower:
	default:
		return fmt.Errorf("api: unknown method %q (want %s or %s)",
			p.Method, MethodLanczos, MethodPower)
	}
	if !(p.Eps >= 0 && p.Eps < 1) {
		return fmt.Errorf("api: eps %v must be in (0, 1)", p.Eps)
	}
	for _, e := range p.EpsList {
		if !(e > 0 && e < 1) {
			return fmt.Errorf("api: eps_list entry %v must be in (0, 1)", e)
		}
	}
	if p.DistShards < 0 {
		return fmt.Errorf("api: dist_shards %d must be positive", p.DistShards)
	}
	if p.DistWalks < 0 {
		return fmt.Errorf("api: dist_walks %d must be positive", p.DistWalks)
	}
	if p.DistRounds < 0 {
		return fmt.Errorf("api: dist_rounds %d must be positive", p.DistRounds)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf. Flags and
// dataset references can spell both; JSON cannot.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Canon renders the output-determining parameters as a canonical
// string — the Params contribution to a result fingerprint. Workers,
// BlockSize and DistShards are deliberately excluded: every kernel
// guarantees byte-identical output for any value (DistShards only
// moves the reported communication diagnostics), so two requests
// differing only there must share one cached result.
func (p Params) Canon() string {
	p = p.WithDefaults()
	eps := make([]string, len(p.EpsList))
	for i, e := range p.EpsList {
		eps[i] = fmt.Sprintf("%v", e)
	}
	return fmt.Sprintf("scale=%v|seed=%d|sources=%d|maxwalk=%d|tol=%v|method=%s|eps=%v|epslist=%s|distwalks=%d|distrounds=%d",
		p.Scale, p.Seed, p.Sources, p.MaxWalk, p.SpectralTol, p.Method, p.Eps,
		strings.Join(eps, ","), p.DistWalks, p.DistRounds)
}
