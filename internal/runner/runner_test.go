package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"mixtime/internal/api"
)

// textResult is a trivial Result for fake experiments.
type textResult string

func (t textResult) Render() string         { return string(t) }
func (t textResult) CSV(w io.Writer) error  { _, err := io.WriteString(w, string(t)+"\n"); return err }
func (t textResult) JSON(w io.Writer) error { _, err := fmt.Fprintf(w, "%q\n", string(t)); return err }

func okRun(out string) RunFunc {
	return func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		return textResult(out), nil
	}
}

func TestRegistryRejectsDuplicatesAndEmpties(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(Def{ID: "", Run: okRun("x")}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := reg.Register(Def{ID: "T1"}); err == nil {
		t.Fatal("nil Run accepted")
	}
	if err := reg.Register(Def{ID: "T1", Name: "table1", Run: okRun("a")}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Def{ID: "t1", Name: "other", Run: okRun("b")}); err == nil {
		t.Fatal("case-insensitive duplicate ID accepted")
	}
	if err := reg.Register(Def{ID: "F9", Name: "TABLE1", Run: okRun("c")}); err == nil {
		t.Fatal("name colliding with earlier name accepted")
	}
}

func TestRegistryResolveIsCaseInsensitive(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "F3", Name: "fig3", Run: okRun("x")})
	for _, key := range []string{"F3", "f3", "FIG3", "fig3", " f3 "} {
		if _, ok := reg.Resolve(key); !ok {
			t.Errorf("Resolve(%q) failed", key)
		}
	}
	if _, ok := reg.Resolve("nope"); ok {
		t.Error("Resolve of unknown key succeeded")
	}
}

func TestRegistryOrderIsRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []string{"T1", "F2", "F1"} {
		reg.MustRegister(Def{ID: id, Run: okRun(id)})
	}
	got := reg.IDs()
	want := []string{"T1", "F2", "F1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
	for i, d := range reg.Defs() {
		if d.ID != want[i] {
			t.Fatalf("Defs()[%d].ID = %s, want %s", i, d.ID, want[i])
		}
	}
}

func TestRunnerSchedulesAndReportsInRequestOrder(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []string{"A", "B", "C", "D"} {
		reg.MustRegister(Def{ID: id, Run: okRun("result-" + id)})
	}
	r := &Runner{Registry: reg, Jobs: 3}
	report, err := r.Run(context.Background(), Config{}, "C", "A", "D")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 3 {
		t.Fatalf("got %d experiments, want 3", len(report.Experiments))
	}
	for i, want := range []string{"C", "A", "D"} {
		e := report.Experiments[i]
		if e.ID != want {
			t.Errorf("report[%d].ID = %s, want %s", i, e.ID, want)
		}
		if e.Err != nil || e.Result == nil {
			t.Errorf("report[%d] = err %v, result %v", i, e.Err, e.Result)
		} else if got := e.Result.Render(); got != "result-"+want {
			t.Errorf("report[%d].Render() = %q", i, got)
		}
	}
	if report.Jobs != 3 {
		t.Errorf("report.Jobs = %d, want 3", report.Jobs)
	}
}

func TestRunnerUnknownKey(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "T1", Run: okRun("x")})
	r := &Runner{Registry: reg}
	if _, err := r.Run(context.Background(), Config{}, "bogus"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunnerJoinsExperimentErrors(t *testing.T) {
	boom := errors.New("boom")
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "OK", Run: okRun("fine")})
	reg.MustRegister(Def{ID: "BAD", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		return nil, boom
	}})
	r := &Runner{Registry: reg, Jobs: 2}
	report, err := r.Run(context.Background(), Config{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrap of boom", err)
	}
	if report == nil || report.Experiments[0].Err != nil || report.Experiments[1].Err == nil {
		t.Fatalf("report did not isolate the failure: %+v", report)
	}
}

func TestRunnerPreCancelledContextSkipsEverything(t *testing.T) {
	ran := false
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "A", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		ran = true
		return textResult("x"), nil
	}})
	reg.MustRegister(Def{ID: "B", Run: okRun("y")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Registry: reg, Jobs: 2}
	report, err := r.Run(ctx, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	if ran {
		t.Error("experiment body ran despite pre-cancelled context")
	}
	for _, e := range report.Experiments {
		if !e.Skipped || !errors.Is(e.Err, context.Canceled) {
			t.Errorf("%s: Skipped=%v Err=%v, want skipped with Canceled", e.ID, e.Skipped, e.Err)
		}
	}
}

func TestRunnerMidRunCancellationSkipsRemainder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "FIRST", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		cancel() // cancel the run from inside the first experiment
		return textResult("done"), nil
	}})
	reg.MustRegister(Def{ID: "SECOND", Run: okRun("never")})
	r := &Runner{Registry: reg, Jobs: 1}
	report, err := r.Run(ctx, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	if e := report.Experiments[0]; e.Skipped || e.Err != nil {
		t.Errorf("first experiment should have completed: %+v", e)
	}
	if e := report.Experiments[1]; !e.Skipped {
		t.Errorf("second experiment should be skipped: %+v", e)
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("err = %v, want completion count 1 of 2", err)
	}
}

func TestRunnerObserverEventsAreStampedAndSerialized(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []string{"A", "B", "C"} {
		id := id
		reg.MustRegister(Def{ID: id, Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
			// Deliberately leave Experiment empty: the runner stamps it.
			Emit(obs, Event{Kind: KindDatasetDone, Dataset: "ds-" + id, Done: 1, Total: 1})
			return textResult(id), nil
		}})
	}
	var mu sync.Mutex
	events := map[EventKind][]Event{}
	obs := ObserverFunc(func(e Event) {
		// The runner guarantees serialized delivery; the mutex here only
		// guards against a runner bug breaking that promise.
		mu.Lock()
		defer mu.Unlock()
		events[e.Kind] = append(events[e.Kind], e)
	})
	r := &Runner{Registry: reg, Jobs: 3, Observer: obs}
	if _, err := r.Run(context.Background(), Config{}); err != nil {
		t.Fatal(err)
	}
	if n := len(events[KindRunStarted]); n != 1 {
		t.Errorf("run-started events = %d, want 1", n)
	}
	if n := len(events[KindRunFinished]); n != 1 {
		t.Errorf("run-finished events = %d, want 1", n)
	}
	if n := len(events[KindExperimentStarted]); n != 3 {
		t.Errorf("experiment-started events = %d, want 3", n)
	}
	if n := len(events[KindExperimentFinished]); n != 3 {
		t.Errorf("experiment-finished events = %d, want 3", n)
	}
	for _, e := range events[KindDatasetDone] {
		if e.Experiment == "" {
			t.Errorf("dataset event not stamped with experiment ID: %+v", e)
		}
		if want := "ds-" + e.Experiment; e.Dataset != want {
			t.Errorf("event %+v: dataset = %q, want %q", e, e.Dataset, want)
		}
	}
}

func TestConfigWithDefaultsLeavesSeedAlone(t *testing.T) {
	got := Config{}.WithDefaults()
	want := Config{
		Scale:       api.DefaultScale,
		Seed:        0, // zero is a valid seed, not a sentinel
		Sources:     api.DefaultSources,
		MaxWalk:     api.DefaultMaxWalk,
		SpectralTol: api.DefaultSpectralTol,
		BlockSize:   api.DefaultBlockSize,
		Workers:     0, // zero means auto, not a sentinel to rewrite
	}
	if got != want {
		t.Errorf("Config{}.WithDefaults() = %+v, want %+v", got, want)
	}
	// Explicit settings survive.
	cfg := Config{Scale: 0.5, Seed: 42, Sources: 7, MaxWalk: 9, SpectralTol: 1e-3,
		BlockSize: 16, Workers: 3}
	if got := cfg.WithDefaults(); got != cfg {
		t.Errorf("WithDefaults rewrote explicit fields: %+v", got)
	}
}
