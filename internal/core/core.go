// Package core composes the two measurement techniques of the paper
// into one high-level API: given a social graph, it extracts the
// largest connected component, estimates the SLEM µ (spectral bound,
// §3.2/Theorem 2), samples per-source variation-distance traces
// (direct measurement, §3.3/Definition 1), and reports the mixing
// time both ways, together with the Sinclair bounds and the
// fast-mixing O(log n) yardstick the Sybil-defense literature
// assumes.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"mixtime/internal/api"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/spectral"
	"mixtime/internal/telemetry"
)

// Options configures a measurement. The numeric defaults are the
// project-wide canonical values from internal/api (Sources 200,
// MaxWalk 500, SpectralTol 1e-7) so that core measurements, the
// experiment drivers and the service wire schema agree on what an
// unset field means.
type Options struct {
	// Sources is the number of sampled start vertices for the direct
	// measurement (default api.DefaultSources; the paper uses 1000
	// on large graphs and every vertex on small ones). Sources ≥ n
	// measures from every vertex (the brute-force mode of Figures 3–5).
	Sources int
	// MaxWalk caps the propagated walk length per source
	// (default api.DefaultMaxWalk).
	MaxWalk int
	// StopEps, when positive, stops each propagation block once every
	// source in it has been within StopEps of π at least once, so its
	// traces end at the block's last first crossing (zero propagates
	// to MaxWalk). Set it only when the traces are read through
	// SampledMixingTime or AverageMixingTime at StopEps: past a
	// stopped trace's end, DistancesAt returns the last recorded
	// distance, not the true one.
	StopEps float64
	// SpectralTol is the SLEM tolerance
	// (default api.DefaultSpectralTol).
	SpectralTol float64
	// Seed drives source sampling and the spectral start vector. Zero
	// is a usable seed, not a sentinel: Measure never rewrites it.
	// Callers that want the project default should start from
	// DefaultOptions.
	Seed uint64
	// SkipSampling disables the direct measurement (SLEM only).
	SkipSampling bool
	// SkipSpectral disables the SLEM estimation (sampling only).
	SkipSpectral bool
	// KeepWhole skips largest-component extraction; the graph must
	// already be connected.
	KeepWhole bool
	// Workers sets the kernel parallelism: blocked-trace fan-out and
	// row-sharded spectral matvecs (0 = GOMAXPROCS where the graph is
	// large enough to amortize it, 1 = sequential). Results are
	// byte-identical for any value.
	Workers int
	// BlockSize is the number of source distributions propagated per
	// blocked CSR pass (default api.DefaultBlockSize); 1 degenerates
	// to per-source matvecs. Traces are byte-identical for any value.
	BlockSize int
	// Progress, if non-nil, is called as long stages advance: stage is
	// "spectral" (done = operator iterations so far, total = 0) or
	// "sampling" (done of total sources traced). Calls are serialized.
	Progress func(stage string, done, total int)
	// Collector, if non-nil, receives kernel telemetry (edges scanned,
	// matvecs, solver iterations, trace counts) plus scoped wall-time
	// timers for the "spectral" and "sampling" stages. Measurements
	// are byte-identical with or without a collector.
	Collector *telemetry.Collector
}

// DefaultOptions returns the canonical measurement options, including
// the default Seed. This constructor is the only place the default
// seed is applied; a zero Seed set explicitly on Options stays zero.
func DefaultOptions() Options {
	return Options{
		Sources:     api.DefaultSources,
		MaxWalk:     api.DefaultMaxWalk,
		SpectralTol: api.DefaultSpectralTol,
		Seed:        api.DefaultSeed,
	}
}

func (o Options) withDefaults() Options {
	if o.Sources <= 0 {
		o.Sources = api.DefaultSources
	}
	if o.MaxWalk <= 0 {
		o.MaxWalk = api.DefaultMaxWalk
	}
	if o.SpectralTol <= 0 {
		o.SpectralTol = api.DefaultSpectralTol
	}
	if o.BlockSize <= 0 {
		o.BlockSize = api.DefaultBlockSize
	}
	// Seed is deliberately not defaulted here: 0 is a valid PCG seed
	// and rewriting it would make the zero seed unusable.
	return o
}

// Measurement is the result of measuring one graph.
type Measurement struct {
	// Graph is the measured component (after LCC extraction).
	Graph *graph.Graph
	// Chain is the measured random walk (lazy iff Bipartite).
	Chain *markov.Chain
	// Bipartite reports whether the component is bipartite, in which
	// case the plain walk is periodic and the lazy chain was measured
	// instead.
	Bipartite bool
	// SLEM is the spectral estimate (nil with SkipSpectral).
	SLEM *spectral.Estimate
	// Traces are the per-source direct measurements (nil with
	// SkipSampling).
	Traces []*markov.Trace
	// Sources are the trace start vertices.
	Sources []graph.NodeID
}

// MeasureContext runs the full methodology on g. ctx is threaded into
// the SLEM iteration and every trace propagation, so a cancelled or
// expired context aborts the measurement promptly with an error
// wrapping ctx.Err().
func MeasureContext(ctx context.Context, g *graph.Graph, opt Options) (*Measurement, error) {
	opt = opt.withDefaults()
	if g.NumNodes() == 0 {
		return nil, errors.New("core: empty graph")
	}
	component := g
	if !opt.KeepWhole {
		component, _ = graph.LargestComponent(g)
	} else if !graph.IsConnected(g) {
		return nil, errors.New("core: KeepWhole requires a connected graph (mixing time is undefined otherwise)")
	}
	if component.NumNodes() < 2 {
		return nil, errors.New("core: component too small to measure")
	}

	m := &Measurement{Graph: component}
	m.Bipartite = graph.IsBipartite(component)
	var chainOpts []markov.Option
	if m.Bipartite {
		chainOpts = append(chainOpts, markov.Lazy())
	}
	if opt.Collector != nil {
		chainOpts = append(chainOpts, markov.WithCollector(opt.Collector))
	}
	chain, err := markov.New(component, chainOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.Chain = chain

	if !opt.SkipSpectral {
		stopSpectral := opt.Collector.Timer("spectral")
		est, err := spectral.SLEMContext(ctx, component, spectral.Options{
			Tol: opt.SpectralTol, Seed: opt.Seed, Workers: opt.Workers,
			Collector: opt.Collector})
		stopSpectral()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if opt.Progress != nil {
			opt.Progress("spectral", est.Iterations, 0)
		}
		if m.Bipartite {
			// The measured chain is lazy; its SLEM is (1+λ₂)/2 and its
			// smallest eigenvalue is non-negative.
			est = &spectral.Estimate{
				Mu:         (1 + est.Lambda2) / 2,
				Lambda2:    (1 + est.Lambda2) / 2,
				LambdaN:    (1 + est.LambdaN) / 2,
				Iterations: est.Iterations,
				Converged:  est.Converged,
			}
		}
		m.SLEM = est
	}

	if !opt.SkipSampling {
		rng := rand.New(rand.NewPCG(opt.Seed, 0xc0fe))
		m.Sources = markov.SampleSources(component, opt.Sources, rng)
		var onTrace func(done, total int)
		if opt.Progress != nil {
			onTrace = func(done, total int) { opt.Progress("sampling", done, total) }
		}
		stopSampling := opt.Collector.Timer("sampling")
		traces, err := chain.TraceSampleBlockedContext(ctx, m.Sources, opt.MaxWalk, opt.StopEps, opt.BlockSize, opt.Workers, onTrace)
		stopSampling()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		m.Traces = traces
	}
	return m, nil
}

// Mu returns the estimated SLEM, or 1 if the spectral pass was
// skipped (the conservative value).
func (m *Measurement) Mu() float64 {
	if m.SLEM == nil {
		return 1
	}
	return m.SLEM.Mu
}

// LowerBound returns the Sinclair lower bound on T(ε) from the
// measured µ.
func (m *Measurement) LowerBound(eps float64) float64 {
	return spectral.MixingLowerBound(m.Mu(), eps)
}

// UpperBound returns the Sinclair upper bound on T(ε).
func (m *Measurement) UpperBound(eps float64) float64 {
	return spectral.MixingUpperBound(m.Mu(), eps, m.Graph.NumNodes())
}

// SampledMixingTime applies Definition 1 to the sampled traces: the
// maximum over sources of the first walk length within ε. ok is
// false if some source never reached ε within MaxWalk (t is then a
// lower bound).
func (m *Measurement) SampledMixingTime(eps float64) (t int, ok bool) {
	return markov.MixingTime(m.Traces, eps)
}

// AverageMixingTime is the mean first-crossing walk length over
// sources — the average-case quantity the paper's §5 recommends
// designs analyze instead of the worst case.
func (m *Measurement) AverageMixingTime(eps float64) float64 {
	return markov.AverageMixingTime(m.Traces, eps)
}

// DistancesAt returns the per-source variation distance after w
// steps (the Figure 3/4 CDF samples).
func (m *Measurement) DistancesAt(w int) []float64 {
	return markov.DistancesAt(m.Traces, w)
}

// FastMixingYardstick returns ⌈ln n⌉ — the walk length the defenses
// under study assume is enough.
func (m *Measurement) FastMixingYardstick() int {
	return spectral.FastMixingWalkLength(m.Graph.NumNodes())
}

// Conductance returns the Cheeger bounds on the graph conductance
// implied by the measured λ₂.
func (m *Measurement) Conductance() (lo, hi float64) {
	if m.SLEM == nil {
		return 0, 1
	}
	return spectral.CheegerBounds(m.SLEM.Lambda2)
}
