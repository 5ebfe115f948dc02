// Command paperfigs regenerates every table and figure of the
// paper's evaluation at a configurable scale, rendering them as text
// tables and ASCII charts and, with -csv/-json, writing the raw data
// for external plotting.
//
// It is a thin shell over internal/runner: every artifact registers
// there under its DESIGN.md §5 ID, and the runner schedules the
// requested subset across a worker pool. Experiments derive all
// randomness from -seed, so `-jobs 4` renders byte-identical output
// to `-jobs 1`. Artifact text goes to stdout; progress and the run
// summary go to stderr.
//
// Long runs are fault-tolerant: a panicking or timing-out experiment
// fails alone (retried under -retries) while the rest of the run
// continues, -checkpoint persists every completed artifact so
// -resume replays them byte-identically after a crash, and the first
// SIGINT/SIGTERM cancels the run gracefully (checkpoints, partial
// summary and profiles still written) while a second one hard-exits.
//
// Usage:
//
//	paperfigs                        # everything at the default scale
//	paperfigs -only T1,F8            # a subset (IDs or legacy names)
//	paperfigs -only table1,fig8      # same subset, legacy names
//	paperfigs -jobs 4                # schedule across 4 workers
//	paperfigs -timeout 2m            # cancel everything at the deadline
//	paperfigs -csv out/ -json out/   # also write out/<id>.{csv,json}
//	paperfigs -scale 0.01 -sources 1000 -seed 7
//	paperfigs -block 16 -workers 2   # propagation block size, kernel workers
//	paperfigs -retries 2 -retry-backoff 5s -exp-timeout 30m
//	paperfigs -checkpoint run1       # persist completed artifacts
//	paperfigs -checkpoint run1 -resume  # replay them after a crash
//
// IDs: T1, F1–F8, X1–X7, D1–D2. Legacy names: table1, fig1..fig8, attack,
// conductance, whanau, trust, detection, defenses, whanau-lookup.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mixtime/internal/api"
	"mixtime/internal/atomicfile"
	"mixtime/internal/checkpoint"
	"mixtime/internal/cliutil"
	_ "mixtime/internal/experiments" // registers the experiment drivers
	"mixtime/internal/faults"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

func main() { os.Exit(run()) }

// run is main's body returning the exit code, so deferred cleanups
// (profile flushing, signal-handler teardown) survive error paths —
// os.Exit in main would skip them.
func run() int {
	scale := flag.Float64("scale", 0.005, "dataset scale factor")
	sources := flag.Int("sources", api.DefaultSources, "sampled sources per graph")
	maxWalk := flag.Int("maxwalk", api.DefaultMaxWalk, "maximum propagated walk length")
	seed := flag.Uint64("seed", api.DefaultSeed, "random seed")
	block := flag.Int("block", api.DefaultBlockSize, "sources propagated per blocked kernel pass")
	workers := flag.Int("workers", 0, "kernel worker goroutines (0 = auto, 1 = sequential)")
	only := flag.String("only", "", "comma-separated subset (IDs like T1,F3 or legacy names)")
	jobs := flag.Int("jobs", 1, "experiments to run in parallel (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this duration (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts per failing experiment (panics and timeouts retry; 0 = fail fast)")
	retryBackoff := flag.Duration("retry-backoff", 0, "sleep before the first retry, doubling per retry")
	expTimeout := flag.Duration("exp-timeout", 0, "per-experiment attempt deadline (fails the attempt, not the run; 0 = none)")
	checkpointDir := flag.String("checkpoint", "", "directory persisting each completed experiment's artifacts")
	resume := flag.Bool("resume", false, "with -checkpoint: replay completed experiments whose config fingerprint matches")
	injectSpec := flag.String("inject", "", `(testing) arm deterministic fault injection on every attempt, e.g. "seed=7,panic=1:1,latency=40ms" (see internal/faults)`)
	csvDir := flag.String("csv", "", "directory to write <id>.csv files")
	jsonDir := flag.String("json", "", "directory to write <id>.json files")
	quiet := flag.Bool("q", false, "suppress per-event progress on stderr")
	listOnly := flag.Bool("list", false, "list registered experiments and exit")
	telemetryOn := flag.Bool("telemetry", false, "collect kernel counters; table on stderr, plus <id>.telemetry.{csv,json} with -csv/-json")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *listOnly {
		for _, d := range runner.Default().Defs() {
			fmt.Printf("%-4s %-14s %s\n", d.ID, d.Name, d.Title)
		}
		return 0
	}
	if *resume && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "paperfigs: -resume requires -checkpoint DIR")
		return 2
	}
	var injector *faults.Injector
	if *injectSpec != "" {
		in, err := faults.Parse(*injectSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			return 2
		}
		injector = in
		fmt.Fprintf(os.Stderr, "paperfigs: fault injection armed (%s)\n", injector)
	}

	stopProfiles, err := cliutil.StartProfiles(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		return 1
	}
	defer stopProfiles()

	// The flags land in the shared api.Params surface first — the same
	// validation and defaults the daemon applies to wire requests —
	// and bridge into the runner's Config from there.
	params := api.Params{
		Scale:       *scale,
		Seed:        *seed,
		Sources:     *sources,
		MaxWalk:     *maxWalk,
		SpectralTol: api.DefaultSpectralTol,
		BlockSize:   *block,
		Workers:     *workers,
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		return 2
	}
	cfg := runner.ConfigFromParams(params)
	cfg.MaxAttempts = *retries + 1
	cfg.RetryBackoff = *retryBackoff
	cfg.PerExperimentTimeout = *expTimeout
	if *telemetryOn {
		cfg.Collector = telemetry.New()
	}
	var keys []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name != "" {
				keys = append(keys, name)
			}
		}
	}
	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "paperfigs:", err)
				return 1
			}
		}
	}

	var ckpt runner.Checkpointer
	if *checkpointDir != "" {
		store, err := checkpoint.Open(*checkpointDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			return 1
		}
		if *resume {
			ckpt = store
		} else {
			// Without -resume the store only records: a stale directory
			// never silently replays into a run that expects fresh work.
			ckpt = saveOnly{store}
		}
	}

	// First SIGINT/SIGTERM cancels the run: in-flight experiments stop
	// at their next context check, completed work is checkpointed, the
	// partial summary and the profiles are still written; a second
	// signal hard-exits (see cliutil.SignalContext).
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var obs runner.Observer
	if !*quiet {
		obs = runner.ObserverFunc(func(e runner.Event) {
			switch e.Kind {
			case runner.KindExperimentStarted:
				fmt.Fprintf(os.Stderr, "paperfigs: %s started\n", e.Experiment)
			case runner.KindExperimentFinished:
				status := "done"
				if e.Err != nil {
					status = "error: " + e.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "paperfigs: %s %s (%.1fs)\n",
					e.Experiment, status, e.Elapsed.Seconds())
			case runner.KindExperimentResumed:
				fmt.Fprintf(os.Stderr, "paperfigs: %s resumed from checkpoint (saved run took %.1fs)\n",
					e.Experiment, e.Elapsed.Seconds())
			case runner.KindAttemptFailed:
				fmt.Fprintf(os.Stderr, "paperfigs: %s attempt %d failed: %v\n",
					e.Experiment, e.Attempt, e.Err)
			case runner.KindRetrying:
				fmt.Fprintf(os.Stderr, "paperfigs: %s retrying (attempt %d) after %v backoff\n",
					e.Experiment, e.Attempt, e.Elapsed)
			case runner.KindCheckpointFailed:
				fmt.Fprintf(os.Stderr, "paperfigs: %s checkpoint not saved: %v\n",
					e.Experiment, e.Err)
			case runner.KindDatasetDone:
				fmt.Fprintf(os.Stderr, "paperfigs: %s: %s %d/%d\n",
					e.Experiment, e.Dataset, e.Done, e.Total)
			}
		})
	}

	r := &runner.Runner{Jobs: *jobs, Observer: obs, Checkpoint: ckpt, Injector: injector}
	report, runErr := r.Run(ctx, cfg, keys...)
	if report == nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", runErr)
		return 1
	}

	// Render in request order regardless of completion order — with
	// per-experiment seeding this output is byte-identical for any
	// -jobs value, and resumed artifacts replay the recorded bytes.
	fmt.Printf("# paperfigs: scale=%v sources=%d maxwalk=%d seed=%d\n\n",
		cfg.Scale, cfg.Sources, cfg.MaxWalk, cfg.Seed)
	failed := false
	for _, e := range report.Experiments {
		if e.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", e.ID, e.Err)
			continue
		}
		fmt.Printf("== %s (%s) ==\n%s\n", e.ID, e.Name, e.Result.Render())
		if err := writeArtifact(*csvDir, e.ID, ".csv", e.Result.CSV); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s: csv: %v\n", e.ID, err)
			return 1
		}
		if err := writeArtifact(*jsonDir, e.ID, ".json", e.Result.JSON); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s: json: %v\n", e.ID, err)
			return 1
		}
		if e.Telemetry != nil {
			if err := writeArtifact(*csvDir, e.ID, ".telemetry.csv", e.Telemetry.CSV); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %s: telemetry csv: %v\n", e.ID, err)
				return 1
			}
			if err := writeArtifact(*jsonDir, e.ID, ".telemetry.json", e.Telemetry.JSON); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %s: telemetry json: %v\n", e.ID, err)
				return 1
			}
		}
	}
	fmt.Fprint(os.Stderr, report.Summary())
	if *telemetryOn {
		fmt.Fprint(os.Stderr, report.TelemetryTable())
	}
	if runErr != nil || failed {
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", runErr)
		}
		return 1
	}
	return 0
}

// saveOnly records checkpoints without ever replaying them — the
// behavior of -checkpoint without -resume.
type saveOnly struct{ *checkpoint.Store }

func (saveOnly) Lookup(string, runner.Config) (runner.CheckpointEntry, bool) {
	return runner.CheckpointEntry{}, false
}

// writeArtifact publishes one artifact file through atomicfile when
// dir is set.
func writeArtifact(dir, id, ext string, emit func(w io.Writer) error) error {
	if dir == "" {
		return nil
	}
	return atomicfile.Write(filepath.Join(dir, id+ext), 0o644, func(f *os.File) error { return emit(f) })
}
