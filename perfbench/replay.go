package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/core"
	"mixtime/internal/distmix"
	"mixtime/internal/graph"
	"mixtime/internal/markov"
	"mixtime/internal/spectral"
	"mixtime/internal/sybil"
	"mixtime/internal/telemetry"
)

// replayer re-runs distinct solves through their layer's public
// function after the timed phase, one fresh collector per call, and
// checks each replay reproduces the served answer. Each replay span
// carries the id of the request whose miss it reproduces. replay is
// safe for concurrent use, so a workload can replay at the concurrency
// its solves ran at.
type replayer struct {
	e *env

	mu     sync.Mutex
	counts map[string]float64 // layer counters summed over replays
	solve  map[int64]float64  // request id → replayed solve ms
}

func newReplayer(e *env) *replayer {
	return &replayer{e: e, counts: map[string]float64{}, solve: map[int64]float64{}}
}

// timed runs f under a span and returns its duration.
func (r *replayer) timed(name string, id int64, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.e.tr.record(0, 0, id, name, "", t0, t1)
	return t1.Sub(t0), err
}

func (r *replayer) add(col *telemetry.Collector, names map[string]telemetry.Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range names {
		r.counts[name] += float64(col.Count(c))
	}
}

var (
	spectralCounters = map[string]telemetry.Counter{
		"spectral.lanczos_iterations": telemetry.LanczosIterations,
		"spectral.power_iterations":   telemetry.PowerIterations,
		"spectral.restarts":           telemetry.Restarts,
		"spectral.matvecs":            telemetry.Matvecs,
	}
	markovCounters = map[string]telemetry.Counter{
		"markov.edges_scanned":    telemetry.EdgesScanned,
		"markov.spmm_blocks":      telemetry.SpMMBlocks,
		"markov.source_steps":     telemetry.SourceSteps,
		"markov.traces_completed": telemetry.TracesCompleted,
	}
	distmixCounters = map[string]telemetry.Counter{
		"distmix.rounds":            telemetry.DistRounds,
		"distmix.messages":          telemetry.DistMessages,
		"distmix.offshard_messages": telemetry.DistOffShardMessages,
	}
)

// slemReplay solves the SLEM of a slem or bounds request with the
// given worker count and checks µ against the served answer.
func slemReplay(g *graph.Graph, req api.Request, served *api.Response) func(workers int, col *telemetry.Collector) error {
	p := req.Params.WithDefaults()
	want := served.SLEM
	if served.Bounds != nil {
		want = &served.Bounds.SLEM
	}
	return func(workers int, col *telemetry.Collector) error {
		est, err := spectral.SLEMContext(context.Background(), g, spectral.Options{Tol: p.SpectralTol, Seed: p.Seed, Workers: workers, Collector: col})
		if err == nil && (want == nil || est.Mu != want.Mu) {
			err = fmt.Errorf("replayed mu %v, served %+v", est.Mu, want)
		}
		return err
	}
}

// measureReplay propagates a cdf request's traces with the given worker
// count and checks the sampled mixing time against the served answer.
func measureReplay(g *graph.Graph, req api.Request, served *api.Response) func(workers int, col *telemetry.Collector) error {
	p := req.Params.WithDefaults()
	return func(workers int, col *telemetry.Collector) error {
		m, err := core.MeasureContext(context.Background(), g, core.Options{
			Sources: p.Sources, MaxWalk: p.MaxWalk, Seed: p.Seed, SkipSpectral: true, KeepWhole: true,
			Workers: workers, BlockSize: p.BlockSize, Collector: col,
		})
		if err != nil {
			return err
		}
		if t, _ := markov.MixingTime(m.Traces, p.Eps); served.CDF == nil || t != served.CDF.SampledT {
			return fmt.Errorf("replayed sampled T %d, served %+v", t, served.CDF)
		}
		return nil
	}
}

// replay re-runs request id's solve on g, the graph the server solved
// it on, with the request's own knobs, and checks the result against
// the served answer.
func (r *replayer) replay(id int64, name string, req api.Request, g *graph.Graph, served *api.Response) error {
	p := req.Params.WithDefaults()
	var d time.Duration
	var err error
	col := telemetry.New()
	switch req.Op {
	case api.OpSLEM, api.OpBounds:
		d, err = r.timed("spectral.slem", id, func() error { return slemReplay(g, req, served)(p.Workers, col) })
		r.add(col, spectralCounters)
	case api.OpCDF:
		d, err = r.timed("core.measure", id, func() error { return measureReplay(g, req, served)(p.Workers, col) })
		r.add(col, markovCounters)
	case api.OpDistMix:
		d, err = r.timed("distmix.estimate", id, func() error {
			res, err := distmix.EstimateMixingTime(context.Background(), g, distmix.Options{
				Shards: p.DistShards, WalksPerNode: p.DistWalks, MaxRounds: p.DistRounds,
				Eps: p.Eps, Sources: p.Sources, Seed: p.Seed, Collector: col,
			})
			if err == nil && (served.DistMix == nil || res.Tau != served.DistMix.Tau) {
				err = fmt.Errorf("replayed tau %d, served %+v", res.Tau, served.DistMix)
			}
			return err
		})
		r.add(col, distmixCounters)
	case api.OpAdmission:
		// The verifier and suspects are sampled exactly as the service
		// samples them; only the protocol build and Verify are timed.
		rng := rand.New(rand.NewPCG(p.Seed, 0x5b11))
		verifier := graph.NodeID(rng.IntN(g.NumNodes()))
		suspects := sybil.AllHonest(g, verifier)
		rng.Shuffle(len(suspects), func(i, j int) { suspects[i], suspects[j] = suspects[j], suspects[i] })
		if len(suspects) > p.Sources {
			suspects = suspects[:p.Sources]
		}
		d, err = r.timed("sybil.verify", id, func() error {
			proto, err := sybil.NewProtocol(g, sybil.Config{W: p.MaxWalk, Seed: p.Seed})
			if err != nil {
				return err
			}
			res := proto.Verify(verifier, suspects)
			if served.Admission == nil || res.NumAccepted != served.Admission.Accepted {
				return fmt.Errorf("replayed %d accepted, served %+v", res.NumAccepted, served.Admission)
			}
			return nil
		})
	default:
		return fmt.Errorf("no replay for op %q", req.Op)
	}
	if err != nil {
		return fmt.Errorf("replay of request %d (%s on %s): %w", id, req.Op, name, err)
	}
	r.mu.Lock()
	r.solve[id] = float64(d.Nanoseconds()) / 1e6
	r.mu.Unlock()
	return nil
}

// variants re-times a slem, bounds or cdf replay at Workers=1 and
// Workers=nproc, and a slem or bounds one with power iteration when
// power is set: the re-baseline rows for the parallel kernels and the
// power wire knob. Run them one at a time.
func (r *replayer) variants(id int64, req api.Request, g *graph.Graph, served *api.Response, power bool) error {
	var f func(workers int, col *telemetry.Collector) error
	var name string
	switch req.Op {
	case api.OpSLEM, api.OpBounds:
		f, name = slemReplay(g, req, served), "spectral.slem"
	case api.OpCDF:
		f, name = measureReplay(g, req, served), "core.measure"
	default:
		return nil
	}
	if _, err := r.timed(name+".w1", id, func() error { return f(1, nil) }); err != nil {
		return err
	}
	if _, err := r.timed(name+".wn", id, func() error { return f(r.e.nproc, nil) }); err != nil {
		return err
	}
	if !power || name != "spectral.slem" {
		return nil
	}
	p := req.Params.WithDefaults()
	_, err := r.timed("spectral.power", id, func() error {
		_, err := spectral.SLEMPowerContext(context.Background(), g, spectral.Options{Tol: p.SpectralTol, Seed: p.Seed})
		return err
	})
	return err
}

// replayLayers turns the replay spans and counters into per-layer
// metrics.
func (r *replayer) replayLayers(o *outcome) {
	tr := r.e.tr
	p50 := func(name string) float64 { return median(spanMS(tr.named(name))) }
	o.layers["spectral.slem_p50_ms"] = p50("spectral.slem")
	o.layers["core.measure_p50_ms"] = p50("core.measure")
	o.layers["distmix.estimate_p50_ms"] = p50("distmix.estimate")
	o.layers["sybil.verify_p50_ms"] = p50("sybil.verify")
	if len(tr.named("spectral.slem.w1")) > 0 {
		o.layers["spectral.slem_w1_ms"] = p50("spectral.slem.w1")
		o.layers["spectral.slem_wn_ms"] = p50("spectral.slem.wn")
		o.layers["spectral.power_p50_ms"] = p50("spectral.power")
		o.layers["core.measure_w1_ms"] = p50("core.measure.w1")
		o.layers["core.measure_wn_ms"] = p50("core.measure.wn")
	}
	for k, v := range r.counts {
		o.layers[k] = v
	}
}
