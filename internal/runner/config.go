package runner

import (
	"time"

	"mixtime/internal/api"
	"mixtime/internal/telemetry"
)

// Config scales and seeds an experiment run. It is the uniform
// configuration every registered experiment receives; drivers with
// extra knobs (protocol parameters, sweep overrides) embed it in
// their extended config and fill the rest with defaults.
type Config struct {
	// Scale multiplies every dataset's node count (default
	// api.DefaultScale: the million-node graphs become 10k — the
	// paper's measurements used a cluster; see EXPERIMENTS.md for the
	// recorded scale per run).
	Scale float64
	// Seed makes runs deterministic. Zero is a valid seed: defaults
	// never overwrite it (the CLIs' -seed flags start from
	// api.DefaultSeed). Experiments derive all their random streams
	// from Seed alone, so results are independent of scheduling order.
	Seed uint64
	// Sources is the number of start vertices for direct measurements
	// (default api.DefaultSources; the paper uses 1000 on large graphs
	// and all vertices on the physics graphs).
	Sources int
	// MaxWalk caps propagated walk lengths (default api.DefaultMaxWalk,
	// the paper's longest probe).
	MaxWalk int
	// SpectralTol is the SLEM tolerance (default api.DefaultSpectralTol).
	SpectralTol float64
	// BlockSize is the number of source distributions propagated per
	// blocked CSR pass (default api.DefaultBlockSize); 1 degenerates to
	// per-source matvecs. Traces are byte-identical for any value.
	BlockSize int
	// Workers bounds the kernel parallelism inside one experiment:
	// blocked-trace fan-out and row-sharded matvecs (0 = GOMAXPROCS on
	// graphs large enough to amortize it, 1 = sequential). Output is
	// byte-identical for any value; combined with Runner.Jobs > 1 the
	// pools can oversubscribe the cores, which wastes nothing but
	// scheduling.
	Workers int
	// MaxAttempts is each experiment's attempt budget: a failing
	// experiment (panic, per-attempt timeout, transient error) is
	// retried until it succeeds or the budget is spent. 0 and 1 both
	// mean a single attempt, i.e. no retries; run cancellation is
	// fatal and never retries. Retries re-run the driver from the same
	// Config, so a retried success is byte-identical to a first-attempt
	// success.
	MaxAttempts int
	// RetryBackoff is the sleep before the second attempt; it doubles
	// for each further retry and aborts early when the run is
	// cancelled. Zero retries immediately.
	RetryBackoff time.Duration
	// PerExperimentTimeout bounds each attempt with a derived
	// context.WithTimeout. The deadline fails only that attempt
	// (classified retryable), never the whole run. Zero means no
	// per-attempt deadline.
	PerExperimentTimeout time.Duration
	// Collector, if non-nil, turns kernel telemetry on: drivers thread
	// it into the markov and spectral hot paths, which count edges
	// scanned, matvecs, SpMM blocks, solver iterations and restarts
	// into it. The Runner gives each experiment a child collector and
	// merges the children here, so per-experiment snapshots appear in
	// ExperimentReport.Telemetry while this collector accumulates the
	// whole run. Telemetry never changes experiment output: results
	// are byte-identical with or without a collector.
	Collector *telemetry.Collector
}

// WithDefaults fills unset (zero or negative) fields with the
// canonical defaults. Seed is deliberately left alone: zero is a
// usable seed, not a sentinel.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = api.DefaultScale
	}
	if c.Sources <= 0 {
		c.Sources = api.DefaultSources
	}
	if c.MaxWalk <= 0 {
		c.MaxWalk = api.DefaultMaxWalk
	}
	if c.SpectralTol <= 0 {
		c.SpectralTol = api.DefaultSpectralTol
	}
	if c.BlockSize <= 0 {
		c.BlockSize = api.DefaultBlockSize
	}
	// Workers is deliberately left alone: 0 means "GOMAXPROCS where it
	// pays off", which is the default behaviour.
	return c
}

// ConfigFromParams bridges the wire-schema parameter surface into the
// runner's Config: the shared knobs copy over, the runner-only ones
// (retries, timeouts, collector) stay zero for the caller to fill.
// Params is the boundary type; Config stays the internal carrier the
// drivers consume.
func ConfigFromParams(p api.Params) Config {
	p = p.WithDefaults()
	return Config{
		Scale:       p.Scale,
		Seed:        p.Seed,
		Sources:     p.Sources,
		MaxWalk:     p.MaxWalk,
		SpectralTol: p.SpectralTol,
		BlockSize:   p.BlockSize,
		Workers:     p.Workers,
	}
}
