package evolve

import (
	"context"
	"fmt"
	"math"

	"mixtime/internal/api"
	"mixtime/internal/spectral"
	"mixtime/internal/telemetry"
)

// Options configures a Tracker.
type Options struct {
	// Tol is the absolute eigenvalue tolerance of every per-epoch
	// solve, warm and cold alike (default 1e-8, matching spectral).
	Tol float64
	// Seed seeds the cold random starts (default 1). Warm starts are
	// deterministic by construction — they begin at the previous
	// epoch's eigenvector.
	Seed uint64
	// Workers shards matvecs exactly as spectral.Options.Workers does.
	Workers int
	// CompareCold additionally runs a cold-start λ₂ phase per epoch
	// and reports its iteration count beside the warm one — the
	// accuracy/cost column of experiment E1. The cold control is
	// discarded after measurement; trajectories always come from the
	// warm chain.
	CompareCold bool
	// Collector receives the solver and evolve_* telemetry.
	Collector *telemetry.Collector
}

// EpochStat is one epoch's observation of the mixing-time trajectory.
type EpochStat struct {
	// Epoch counts Observe calls on this tracker (0-based); Version is
	// the underlying graph's epoch counter at observation time.
	Epoch   int
	Version Version
	Nodes   int
	Edges   int64
	// Mu, Lambda2, LambdaN and Converged are the warm solve's estimate.
	Mu, Lambda2, LambdaN float64
	Converged            bool
	// WarmStarted reports whether this epoch actually reused the
	// previous eigenvector (the first epoch never does).
	WarmStarted bool
	// WarmIters is the λ₂-phase iteration count of the warm solve;
	// ColdIters is the cold control's (0 unless Options.CompareCold).
	// TotalIters is the warm solve's full count across both phases.
	WarmIters, ColdIters, TotalIters int
	// ColdMu is the cold control's µ, max(|cold λ₂|, |λ_n|) (0 unless
	// CompareCold): at equal tolerance it agrees with Mu to within the
	// solver tolerance, which is what makes the iteration comparison an
	// equal-accuracy one.
	ColdMu float64
	// LowerT and UpperT are the Sinclair mixing-time bounds at
	// ε = api.DefaultEps (the paper's headline 0.1) for this epoch.
	LowerT, UpperT float64
}

// Tracker observes the SLEM/mixing-time trajectory of a MutableGraph
// across epochs, warm-starting each solve from the previous epoch's
// λ₂ eigenvector. The warm-start contract: the seed vector is a hint,
// never an assumption — a stale or wrong-length vector degrades to a
// cold start inside spectral, so every estimate is correct at the
// requested tolerance regardless of how far the graph drifted between
// observations.
//
// The tracked graph must stay free of isolated vertices at every
// observed epoch (delete batches that strand a vertex make the walk
// operator undefined); E1/E2 maintain that by construction.
type Tracker struct {
	mg    *MutableGraph
	opt   Options
	prev  []float64
	epoch int
}

// NewTracker builds a tracker over mg. The collector (if any) is also
// attached to mg so epoch counters and solver counters land together.
func NewTracker(mg *MutableGraph, opt Options) *Tracker {
	if opt.Collector != nil {
		mg.SetCollector(opt.Collector)
	}
	return &Tracker{mg: mg, opt: opt}
}

// Observe estimates the current epoch's SLEM by power iteration
// (warm-started when a previous eigenvector is available) and records
// the eigenvector for the next call. Power iteration splits its
// iterations between the λ₂ and λ_n phases, which makes the warm-start
// saving directly countable. Safe to call after any number of Apply
// calls in between; each Observe measures whatever epoch is current.
func (t *Tracker) Observe(ctx context.Context) (EpochStat, error) {
	g, ver := t.mg.Snapshot()
	sopt := spectral.Options{
		Tol:       t.opt.Tol,
		Seed:      t.opt.Seed,
		Workers:   t.opt.Workers,
		Collector: t.opt.Collector,
	}
	// A grown node range keeps old IDs stable, so a shorter previous
	// vector is still a useful hint: pad the new coordinates with
	// zeros and let deflation renormalize. A longer one means the
	// graph shrank (relabeling destroyed alignment) — cold start.
	if len(t.prev) > 0 && len(t.prev) <= g.NumNodes() {
		start := make([]float64, g.NumNodes())
		copy(start, t.prev)
		sopt.Start = start
	}

	est, err := spectral.SLEMPowerContext(ctx, g, sopt)
	if err != nil {
		return EpochStat{}, fmt.Errorf("evolve: epoch %d (version %d): %w", t.epoch, ver, err)
	}

	stat := EpochStat{
		Epoch:       t.epoch,
		Version:     ver,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Mu:          est.Mu,
		Lambda2:     est.Lambda2,
		LambdaN:     est.LambdaN,
		Converged:   est.Converged,
		WarmStarted: est.WarmStarted,
		WarmIters:   est.Iters2,
		TotalIters:  est.Iterations,
		LowerT:      spectral.MixingLowerBound(est.Mu, api.DefaultEps),
		UpperT:      spectral.MixingUpperBound(est.Mu, api.DefaultEps, g.NumNodes()),
	}
	if t.opt.CompareCold {
		// A full cold solve's λ_n phase would repeat the warm solve's
		// bit for bit: λ_n always cold-starts, on the same operator at
		// the same Seed and Tol. So the control runs the λ₂ phase alone
		// and shares the warm λ_n.
		op, err := spectral.NewOperator(g)
		if err != nil {
			return EpochStat{}, fmt.Errorf("evolve: epoch %d cold control: %w", t.epoch, err)
		}
		copt := sopt
		copt.Start = nil
		cold, err := spectral.Lambda2Power(ctx, op, copt)
		if err != nil {
			return EpochStat{}, fmt.Errorf("evolve: epoch %d cold control: %w", t.epoch, err)
		}
		stat.ColdIters = cold.Iters2
		stat.ColdMu = math.Max(math.Abs(cold.Lambda2), math.Abs(est.LambdaN))
	}

	t.prev = est.Vector2
	t.epoch++
	return stat, nil
}
