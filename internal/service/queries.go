package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sort"

	"mixtime/internal/api"
	"mixtime/internal/core"
	"mixtime/internal/distmix"
	_ "mixtime/internal/experiments" // registers the experiment drivers for OpExperiment
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/runner"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
	"mixtime/internal/telemetry"
)

// solve dispatches one validated request to its op implementation.
// Every implementation derives all randomness from Params.Seed, so
// equal fingerprints really do denote interchangeable results — the
// invariant the cache replays on.
func solve(ctx context.Context, req api.Request, e *Entry, col *telemetry.Collector) (*api.Response, error) {
	resp := &api.Response{
		SchemaVersion: api.SchemaVersion,
		Op:            req.Op,
		Graph:         req.Graph,
		Experiment:    req.Experiment,
	}
	p := req.Params.WithDefaults()
	var err error
	switch req.Op {
	case api.OpSLEM:
		resp.SLEM, err = solveSLEM(ctx, p, e, col)
	case api.OpBounds:
		resp.Bounds, err = solveBounds(ctx, p, e, col)
	case api.OpCDF:
		resp.CDF, err = solveCDF(ctx, p, e, col)
	case api.OpAdmission:
		resp.Admission, err = solveAdmission(ctx, p, e)
	case api.OpDistMix:
		resp.DistMix, err = solveDistMix(ctx, p, e, col)
	case api.OpExperiment:
		resp.Document, err = solveExperiment(ctx, req.Experiment, p, col)
	default:
		err = fmt.Errorf("service: unknown op %q", req.Op)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// estimate runs the requested SLEM solver on the entry's component.
func estimate(ctx context.Context, p api.Params, e *Entry, col *telemetry.Collector) (*spectral.Estimate, error) {
	opt := spectral.Options{
		Tol:       p.SpectralTol,
		Seed:      p.Seed,
		Workers:   p.Workers,
		Collector: col,
	}
	if p.Method == api.MethodPower {
		return spectral.SLEMPowerContext(ctx, e.Graph, opt)
	}
	return spectral.SLEMContext(ctx, e.Graph, opt)
}

func slemResult(est *spectral.Estimate, p api.Params, e *Entry) api.SLEMResult {
	return api.SLEMResult{
		Mu:         est.Mu,
		Lambda2:    est.Lambda2,
		LambdaN:    est.LambdaN,
		Iterations: est.Iterations,
		Converged:  est.Converged,
		Method:     p.Method,
		Nodes:      e.Graph.NumNodes(),
		Edges:      e.Graph.NumEdges(),
	}
}

func solveSLEM(ctx context.Context, p api.Params, e *Entry, col *telemetry.Collector) (*api.SLEMResult, error) {
	est, err := estimate(ctx, p, e, col)
	if err != nil {
		return nil, err
	}
	r := slemResult(est, p, e)
	return &r, nil
}

func solveBounds(ctx context.Context, p api.Params, e *Entry, col *telemetry.Collector) (*api.BoundsResult, error) {
	est, err := estimate(ctx, p, e, col)
	if err != nil {
		return nil, err
	}
	n := e.Graph.NumNodes()
	rows := make([]api.BoundRow, len(p.EpsList))
	for i, eps := range p.EpsList {
		rows[i] = api.BoundRow{
			Eps:   eps,
			Lower: spectral.MixingLowerBound(est.Mu, eps),
			Upper: spectral.MixingUpperBound(est.Mu, eps, n),
		}
	}
	return &api.BoundsResult{
		SLEM: slemResult(est, p, e),
		Rows: rows,
		LogN: spectral.FastMixingWalkLength(n),
	}, nil
}

func solveCDF(ctx context.Context, p api.Params, e *Entry, col *telemetry.Collector) (*api.CDFResult, error) {
	// The entry's graph is already the largest component, so KeepWhole
	// skips a redundant extraction. The payload reads only first
	// crossings of ε, so each block stops at its last one.
	m, err := core.MeasureContext(ctx, e.Graph, core.Options{
		Sources:      p.Sources,
		MaxWalk:      p.MaxWalk,
		StopEps:      p.Eps,
		Seed:         p.Seed,
		SkipSpectral: true,
		KeepWhole:    true,
		Workers:      p.Workers,
		BlockSize:    p.BlockSize,
		Collector:    col,
	})
	if err != nil {
		return nil, err
	}
	sampledT, complete := markov.MixingTime(m.Traces, p.Eps)
	// First crossings of ε, per source that mixed; the CDF denominator
	// stays the full sample so an incomplete run visibly plateaus
	// below 1.
	firsts := make([]int, 0, len(m.Traces))
	for _, tr := range m.Traces {
		if t, ok := tr.MixingTime(p.Eps); ok {
			firsts = append(firsts, t)
		}
	}
	sort.Ints(firsts)
	var points []api.CDFPoint
	var avg float64
	total := len(m.Traces)
	for i, t := range firsts {
		avg += float64(t)
		if i+1 < len(firsts) && firsts[i+1] == t {
			continue
		}
		points = append(points, api.CDFPoint{T: t, Frac: float64(i+1) / float64(total)})
	}
	if len(firsts) > 0 {
		avg /= float64(len(firsts))
	}
	return &api.CDFResult{
		Eps:      p.Eps,
		Sources:  total,
		MaxWalk:  p.MaxWalk,
		Nodes:    e.Graph.NumNodes(),
		Edges:    e.Graph.NumEdges(),
		SampledT: sampledT,
		Complete: complete,
		AvgT:     avg,
		Points:   points,
	}, nil
}

// solveDistMix runs the simulated distributed estimator. The payload's
// Tau/LocalTau fields depend only on (seed, sources, eps, dist_walks,
// dist_rounds) — never on dist_shards or scheduling — which is the
// invariant that lets dist_shards stay out of the fingerprint while
// the communication diagnostics ride along as solve metadata.
func solveDistMix(ctx context.Context, p api.Params, e *Entry, col *telemetry.Collector) (*api.DistMixResult, error) {
	res, err := distmix.EstimateMixingTime(ctx, e.Graph, distmix.Options{
		Shards:       p.DistShards,
		WalksPerNode: p.DistWalks,
		MaxRounds:    p.DistRounds,
		Eps:          p.Eps,
		Sources:      p.Sources,
		Seed:         p.Seed,
		Collector:    col,
	})
	if err != nil {
		return nil, err
	}
	return &api.DistMixResult{
		Eps:              res.Eps,
		Sources:          len(res.Sources),
		WalksPerNode:     res.WalksPerNode,
		Walks:            res.Walks,
		Shards:           res.Shards,
		MaxRounds:        p.DistRounds,
		Lazy:             res.Lazy,
		Tau:              res.Tau,
		Complete:         res.Complete,
		LocalTau:         res.LocalTau,
		LocalComplete:    res.LocalComplete,
		NoiseFloor:       res.NoiseFloor,
		Rounds:           res.Stats.Rounds,
		Messages:         res.Stats.Messages,
		OffShardMessages: res.Stats.OffShardMessages,
		OnShardBytes:     res.Stats.OnShardBytes,
		OffShardBytes:    res.Stats.OffShardBytes,
		Nodes:            e.Graph.NumNodes(),
		Edges:            e.Graph.NumEdges(),
	}, nil
}

func solveAdmission(ctx context.Context, p api.Params, e *Entry) (*api.AdmissionResult, error) {
	g := e.Graph
	proto, err := sybil.NewProtocol(g, sybil.Config{W: p.MaxWalk, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	// Sample the verifier and suspect set from the request seed: same
	// seed, same admission run. Routes are the expensive part, so a
	// context check here suffices before committing to them.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x5b11))
	verifier := graph.NodeID(rng.IntN(g.NumNodes()))
	suspects := sybil.AllHonest(g, verifier)
	rng.Shuffle(len(suspects), func(i, j int) {
		suspects[i], suspects[j] = suspects[j], suspects[i]
	})
	if len(suspects) > p.Sources {
		suspects = suspects[:p.Sources]
	}
	res := proto.Verify(verifier, suspects)
	return &api.AdmissionResult{
		Verifier:        int64(verifier),
		Suspects:        len(suspects),
		Accepted:        res.NumAccepted,
		AcceptRate:      res.AcceptRate(),
		NoIntersection:  res.NoIntersection,
		BalanceRejected: res.BalanceRejected,
		R:               proto.Config().R,
		W:               proto.Config().W,
		Nodes:           g.NumNodes(),
		Edges:           g.NumEdges(),
	}, nil
}

// solveExperiment runs one registered experiment through the same
// runner cmd/paperfigs uses and returns its JSON document verbatim —
// the acceptance invariant that a daemon experiment response and a
// `paperfigs -json` artifact are the same bytes.
func solveExperiment(ctx context.Context, id string, p api.Params, col *telemetry.Collector) ([]byte, error) {
	cfg := runner.ConfigFromParams(p)
	cfg.Collector = col
	r := &runner.Runner{Jobs: 1}
	report, err := r.Run(ctx, cfg, id)
	if err != nil {
		return nil, err
	}
	if len(report.Experiments) != 1 {
		return nil, fmt.Errorf("service: experiment %q resolved to %d runs", id, len(report.Experiments))
	}
	exp := report.Experiments[0]
	if exp.Err != nil {
		return nil, exp.Err
	}
	var buf bytes.Buffer
	if err := exp.Result.JSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resolveExperiment canonicalizes an experiment key (ID or legacy
// name) to its registered ID, so "whanau" and "X3" share a
// fingerprint.
func resolveExperiment(key string) (string, error) {
	d, ok := runner.Default().Resolve(key)
	if !ok {
		return "", fmt.Errorf("service: unknown experiment %q", key)
	}
	return d.ID, nil
}
