package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	_ "mixtime/internal/experiments" // registers the experiment drivers
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// figsConfig is the cut-down configuration of bench_test.go's benchCfg
// (scale 0.001, 50 sources, walks up to 300 steps) for regeneration k
// of a run. Each regeneration draws its own experiment seed from the
// workload seed: the graphs, and with them the cost of a regeneration,
// change with the seed, so a run that spans several seeds reads the
// same from workload seed to workload seed.
func figsConfig(seed uint64, k int64) runner.Config {
	return runner.Config{Scale: 0.001, Seed: seed*1000 + uint64(k), Sources: 50, MaxWalk: 300}
}

// figsObserver turns the runner's start/finish events into
// runner.experiment spans, busy times and job-slot waits.
type figsObserver struct {
	e      *env
	regen  int64
	start  time.Time // the regeneration's start
	began  map[string]time.Time
	busy   map[string]float64 // experiment → busy seconds
	waited float64            // seconds experiments waited for a job slot
}

func (f *figsObserver) OnEvent(ev runner.Event) {
	switch ev.Kind {
	case runner.KindExperimentStarted:
		now := time.Now()
		f.began[ev.Experiment] = now
		f.waited += now.Sub(f.start).Seconds()
	case runner.KindExperimentFinished:
		f.busy[ev.Experiment] = ev.Elapsed.Seconds()
		f.e.tr.record(0, 0, f.regen, "runner.experiment", ev.Experiment, f.began[ev.Experiment], time.Now())
	}
}

func runPaperFigs(e *env) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()

	// Set-up is a warm-up run of T1, which generates every Table-1
	// substitute at the run's scale and first seed: first-use costs
	// (heap growth, page faults) land here rather than in the first
	// regeneration.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		rep, err := (&runner.Runner{Jobs: 1}).Run(ctx, figsConfig(e.seed, 0), "T1")
		if err == nil {
			err = rep.Experiments[0].Err
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		e.tr.record(0, 0, -1, "setup", "T1 warm-up", t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	e.logf("paper-figs: set-up %.3f s (median of %d), timed phase %d s over %d experiments",
		o.e2e["setup_s"], setupRuns, e.seconds, len(paperFigsSubset))

	var col *telemetry.Collector
	if e.tr != nil {
		col = telemetry.New()
	}
	var walls, waits []float64
	perExp := map[string][]float64{}
	ph := beginPhase()
	deadline := ph.start.Add(e.duration())
	var regens int64
	for ; regens == 0 || time.Now().Before(deadline); regens++ {
		cfg := figsConfig(e.seed, regens)
		if regens == 0 {
			cfg.Collector = col
		}
		obs := &figsObserver{e: e, regen: regens, start: time.Now(), began: map[string]time.Time{}, busy: map[string]float64{}}
		rep, err := (&runner.Runner{Jobs: e.nproc, Observer: obs}).Run(ctx, cfg, paperFigsSubset...)
		if err != nil {
			return nil, err
		}
		walls = append(walls, rep.Wall.Seconds())
		waits = append(waits, obs.waited)
		for _, x := range rep.Experiments {
			o.attempted++
			if x.Err != nil {
				e.check.fail("regeneration %d: %s: %v", regens, x.ID, x.Err)
				continue
			}
			var buf bytes.Buffer
			if err := x.Result.JSON(&buf); err != nil {
				e.check.fail("regeneration %d: %s artifact: %v", regens, x.ID, err)
				continue
			}
			e.check.known(regens, fmt.Sprintf("%s@%d", x.ID, cfg.Seed), digestBytes(buf.Bytes()))
			perExp[x.ID] = append(perExp[x.ID], obs.busy[x.ID])
		}
	}
	ph.end(o, o.attempted)
	// The gated latency is one regeneration run back to back at the
	// median: each experiment's median latency, summed. A run holds only
	// ten-odd regenerations of a few seconds, and the median of their
	// wall times follows whatever the host's neighbours did during the
	// middle few; a burst of stolen CPU slows a few samples of each
	// experiment instead, which its median drops. The median experiment
	// latency over all experiments would sit on the edge between the
	// 0.1-0.2 s experiments and jump.
	var serial float64
	for _, id := range paperFigsSubset {
		serial += median(perExp[id])
	}
	o.e2e["latency_p50_ms"] = serial * 1e3
	o.e2e["wall_s"] = median(walls)
	o.e2e["failed_share"] = float64(e.check.failures()) / float64(o.attempted)
	o.notef("%d regenerations of %d experiments; wall per regeneration %.3f-%.3f s",
		regens, len(paperFigsSubset), quantile(walls, 0), quantile(walls, 1))
	if e.tr == nil {
		return o, nil
	}
	for _, id := range paperFigsSubset {
		o.layers["runner."+id+"_s"] = median(perExp[id])
	}
	o.layers["runner.wait_s"] = median(waits)
	// The counters cover the first regeneration only, whose seed the
	// workload seed fixes, so they repeat exactly for a seed.
	o.layers["experiments.edges_scanned"] = float64(col.Count(telemetry.EdgesScanned))
	o.layers["experiments.power_iterations"] = float64(col.Count(telemetry.PowerIterations))
	o.layers["experiments.walker_moves"] = float64(col.Count(telemetry.WalkerMoves))
	return o, nil
}
