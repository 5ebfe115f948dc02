// Package runner turns the per-figure experiment drivers into one
// schedulable, cancellable, observable unit. Every artifact of the
// paper's evaluation registers into a Registry under its DESIGN.md §5
// ID (T1, F1–F8, X1–X7) behind the uniform contract
//
//	Run(ctx context.Context, cfg Config, obs Observer) (Result, error)
//
// and the Runner schedules any subset across a bounded worker pool.
// Experiments derive every random stream from Config.Seed alone, so a
// parallel run renders byte-identically to a sequential one; context
// cancellation is threaded through the long loops (trace propagation,
// power/Lanczos iteration), so a cancelled run stops promptly instead
// of finishing the figure it was on.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"mixtime/internal/faults"
	"mixtime/internal/telemetry"
)

// Result is a finished experiment's artifact: renderable text plus
// uniform machine-readable emission.
type Result interface {
	// Render returns the artifact as the text table / ASCII chart the
	// paper shows.
	Render() string
	// CSV writes the raw rows as CSV.
	CSV(w io.Writer) error
	// JSON writes the raw rows as indented JSON.
	JSON(w io.Writer) error
}

// RunFunc is the uniform experiment entry point.
type RunFunc func(ctx context.Context, cfg Config, obs Observer) (Result, error)

// Def describes one registered experiment.
type Def struct {
	// ID is the DESIGN.md §5 artifact ID ("T1", "F3", "X7").
	ID string
	// Name is the legacy cmd/paperfigs artifact name ("table1",
	// "fig3", "whanau-lookup"); Resolve accepts either.
	Name string
	// Title is a one-line description for listings and summaries.
	Title string
	// Run executes the experiment.
	Run RunFunc
}

// Registry holds experiment definitions in registration order.
type Registry struct {
	mu    sync.RWMutex
	order []string        // IDs in registration order
	byKey map[string]*Def // lowercase ID and Name → def
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*Def{}}
}

// Register adds d; it fails on a missing ID or Run, or when the ID or
// Name collides with an earlier registration — together with the
// completeness test this guarantees every artifact is registered
// exactly once.
func (r *Registry) Register(d Def) error {
	if d.ID == "" || d.Run == nil {
		return errors.New("runner: Def needs an ID and a Run func")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := []string{strings.ToLower(d.ID)}
	if d.Name != "" && !strings.EqualFold(d.Name, d.ID) {
		keys = append(keys, strings.ToLower(d.Name))
	}
	for _, k := range keys {
		if _, dup := r.byKey[k]; dup {
			return fmt.Errorf("runner: %q already registered", k)
		}
	}
	def := d
	for _, k := range keys {
		r.byKey[k] = &def
	}
	r.order = append(r.order, d.ID)
	return nil
}

// MustRegister is Register, panicking on error (for init-time use).
func (r *Registry) MustRegister(d Def) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Resolve looks an experiment up by ID or legacy name,
// case-insensitively.
func (r *Registry) Resolve(key string) (Def, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byKey[strings.ToLower(strings.TrimSpace(key))]
	if !ok {
		return Def{}, false
	}
	return *d, true
}

// IDs returns the registered IDs in registration order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Defs returns the definitions in registration order.
func (r *Registry) Defs() []Def {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Def, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, *r.byKey[strings.ToLower(id)])
	}
	return out
}

// defaultRegistry is populated by internal/experiments at init time.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// MustRegister adds d to the default registry, panicking on error.
func MustRegister(d Def) { defaultRegistry.MustRegister(d) }

// ExperimentReport is one experiment's outcome within a run.
type ExperimentReport struct {
	ID      string
	Name    string
	Title   string
	Result  Result // nil on error or skip
	Err     error  // non-nil on failure; wraps ctx.Err() when skipped
	Elapsed time.Duration
	// Skipped reports the experiment never started because the run was
	// cancelled first.
	Skipped bool
	// Attempts is the number of attempts consumed (1 for an untroubled
	// run; up to Config.MaxAttempts when retries fired). Zero when the
	// experiment was skipped or resumed from a checkpoint.
	Attempts int
	// Resumed reports the result was replayed from a checkpoint
	// instead of re-running the driver.
	Resumed bool
	// Telemetry is the experiment's counter snapshot when the run was
	// instrumented (Config.Collector non-nil), nil otherwise. Each
	// experiment records into its own child collector, so these stay
	// attributable under parallel scheduling.
	Telemetry *telemetry.Snapshot
}

// Report is a completed (or cancelled) run.
type Report struct {
	// Experiments are in request order, regardless of which worker
	// finished first.
	Experiments []ExperimentReport
	// Wall is the whole run's wall time.
	Wall time.Duration
	// Jobs is the worker-pool size used.
	Jobs int
}

// Summary renders the per-experiment timing table the run ends with.
func (rp *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run summary: %d experiments, %d jobs, %.1fs wall\n",
		len(rp.Experiments), rp.Jobs, rp.Wall.Seconds())
	width := 2
	for _, e := range rp.Experiments {
		if len(e.ID) > width {
			width = len(e.ID)
		}
	}
	for _, e := range rp.Experiments {
		status := "ok"
		switch {
		case e.Skipped:
			status = "skipped (cancelled)"
		case e.Err != nil:
			status = "error: " + e.Err.Error()
		case e.Resumed:
			status = "ok (resumed from checkpoint)"
		case e.Attempts > 1:
			status = fmt.Sprintf("ok (attempt %d)", e.Attempts)
		}
		fmt.Fprintf(&b, "  %-*s  %8.2fs  %s\n", width, e.ID, e.Elapsed.Seconds(), status)
	}
	return b.String()
}

// TelemetryTable renders the per-experiment kernel counters of an
// instrumented run as an aligned text table (empty string when the
// run carried no collector). It reports the deterministic counters
// only — wall times live in Summary and the per-snapshot timers.
func (rp *Report) TelemetryTable() string {
	cols := []struct {
		head string
		ctr  telemetry.Counter
	}{
		{"edges", telemetry.EdgesScanned},
		{"matvecs", telemetry.Matvecs},
		{"spmm", telemetry.SpMMBlocks},
		{"src-steps", telemetry.SourceSteps},
		{"power", telemetry.PowerIterations},
		{"lanczos", telemetry.LanczosIterations},
		{"restarts", telemetry.Restarts},
		{"traces", telemetry.TracesCompleted},
	}
	any := false
	for _, e := range rp.Experiments {
		if e.Telemetry != nil {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	idW := 2
	for _, e := range rp.Experiments {
		if len(e.ID) > idW {
			idW = len(e.ID)
		}
	}
	fmt.Fprintf(&b, "%-*s", idW, "id")
	for _, c := range cols {
		fmt.Fprintf(&b, "  %12s", c.head)
	}
	b.WriteByte('\n')
	total := telemetry.New()
	for _, e := range rp.Experiments {
		if e.Telemetry == nil {
			continue
		}
		fmt.Fprintf(&b, "%-*s", idW, e.ID)
		for _, c := range cols {
			fmt.Fprintf(&b, "  %12d", e.Telemetry.Get(c.ctr))
		}
		b.WriteByte('\n')
		total.Merge(*e.Telemetry)
	}
	snap := total.Snapshot()
	fmt.Fprintf(&b, "%-*s", idW, "sum")
	for _, c := range cols {
		fmt.Fprintf(&b, "  %12d", snap.Get(c.ctr))
	}
	b.WriteByte('\n')
	return b.String()
}

// CheckpointEntry is a previously completed experiment restored from
// a Checkpointer: a byte-replayable Result plus the recorded wall
// time and (if the original run was instrumented) telemetry.
type CheckpointEntry struct {
	Result    Result
	Elapsed   time.Duration
	Telemetry *telemetry.Snapshot
}

// Checkpointer persists completed experiments across process runs so
// a killed run restarts where it died. internal/checkpoint provides
// the file-backed implementation; the runner only needs lookups to
// replay prior results and saves after each success. Implementations
// must be safe for concurrent use by the worker pool.
type Checkpointer interface {
	// Lookup returns the replayable entry for an experiment previously
	// completed under an equivalent Config, or false when the
	// experiment must (re)run.
	Lookup(id string, cfg Config) (CheckpointEntry, bool)
	// Save persists a completed experiment's report.
	Save(id string, cfg Config, rep *ExperimentReport) error
}

// Runner schedules registered experiments over a worker pool.
type Runner struct {
	// Registry to draw experiments from; nil means Default().
	Registry *Registry
	// Jobs bounds the number of experiments in flight (<= 0 means
	// GOMAXPROCS). Independent experiments run in parallel; output is
	// byte-identical to a sequential run because every experiment
	// seeds its own random streams from Config.Seed.
	Jobs int
	// Observer receives progress events. It need not be thread-safe:
	// the runner serializes deliveries.
	Observer Observer
	// Checkpoint, if non-nil, persists each completed experiment and
	// replays matching prior completions instead of re-running them
	// (see internal/checkpoint).
	Checkpoint Checkpointer
	// Injector, when non-nil, arms deterministic fault injection
	// (paperfigs -inject): every attempt draws from it inside the
	// recover barrier and under the attempt deadline, before the
	// driver runs, so panics, transient errors and stalls exercise
	// the retry and timeout paths. See internal/faults.
	Injector *faults.Injector
}

// Run executes the named experiments (all registered ones when keys
// is empty) under cfg and returns the per-experiment report. The
// returned error wraps ctx.Err() when the run was cancelled, and
// joins the per-experiment failures otherwise; the report is returned
// in both cases so partial results stay inspectable.
func (r *Runner) Run(ctx context.Context, cfg Config, keys ...string) (*Report, error) {
	reg := r.Registry
	if reg == nil {
		reg = Default()
	}
	var defs []Def
	if len(keys) == 0 {
		defs = reg.Defs()
	} else {
		for _, k := range keys {
			d, ok := reg.Resolve(k)
			if !ok {
				return nil, fmt.Errorf("runner: unknown experiment %q (known: %s)",
					k, strings.Join(reg.IDs(), ", "))
			}
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		return nil, errors.New("runner: no experiments registered")
	}
	cfg = cfg.WithDefaults()

	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(defs) {
		jobs = len(defs)
	}

	obs := &lockedObserver{inner: r.Observer}
	reports := make([]ExperimentReport, len(defs))
	start := time.Now()

	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(defs) {
					return
				}
				d := defs[i]
				rep := &reports[i]
				rep.ID, rep.Name, rep.Title = d.ID, d.Name, d.Title
				if err := ctx.Err(); err != nil {
					rep.Skipped = true
					rep.Err = fmt.Errorf("runner: %s skipped: %w", d.ID, err)
					continue
				}
				// A matching checkpoint replays the prior result byte-for-
				// byte instead of re-running the driver.
				if r.Checkpoint != nil {
					if entry, ok := r.Checkpoint.Lookup(d.ID, cfg); ok {
						rep.Result, rep.Elapsed, rep.Resumed = entry.Result, entry.Elapsed, true
						Emit(obs, Event{Kind: KindExperimentResumed, Experiment: d.ID,
							Elapsed: entry.Elapsed})
						if cfg.Collector != nil && entry.Telemetry != nil {
							rep.Telemetry = entry.Telemetry
							cfg.Collector.Merge(*entry.Telemetry)
						}
						continue
					}
				}
				// Instrumented runs give each experiment a child collector,
				// merged into the run-wide one after the experiment returns;
				// drivers still see a single cfg.Collector either way.
				cfgi := cfg
				if cfg.Collector != nil {
					cfgi.Collector = telemetry.New()
				}
				t0 := time.Now()
				Emit(obs, Event{Kind: KindExperimentStarted, Experiment: d.ID})
				res, err, attempts := r.runAttempts(ctx, d, cfgi, stampedObserver{inner: obs, id: d.ID})
				rep.Result, rep.Err, rep.Attempts = res, err, attempts
				rep.Elapsed = time.Since(t0)
				Emit(obs, Event{Kind: KindExperimentFinished, Experiment: d.ID,
					Elapsed: rep.Elapsed, Err: err})
				if cfg.Collector != nil {
					snap := cfgi.Collector.Snapshot()
					rep.Telemetry = &snap
					cfg.Collector.Merge(snap)
				}
				if r.Checkpoint != nil && err == nil {
					if serr := r.Checkpoint.Save(d.ID, cfg, rep); serr != nil {
						Emit(obs, Event{Kind: KindCheckpointFailed, Experiment: d.ID, Err: serr})
					}
				}
			}
		}()
	}
	wg.Wait()

	report := &Report{Experiments: reports, Wall: time.Since(start), Jobs: jobs}
	if err := ctx.Err(); err != nil {
		done := 0
		for _, e := range reports {
			if e.Err == nil && !e.Skipped {
				done++
			}
		}
		return report, fmt.Errorf("runner: cancelled after %d of %d experiments: %w",
			done, len(defs), err)
	}
	var errs []error
	for _, e := range reports {
		if e.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.ID, e.Err))
		}
	}
	if len(errs) > 0 {
		return report, errors.Join(errs...)
	}
	return report, nil
}
