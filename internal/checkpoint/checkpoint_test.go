package checkpoint

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// fakeResult is a deterministic Result whose emissions depend only on
// its payload string.
type fakeResult string

func (f fakeResult) Render() string { return "render:" + string(f) + "\n" }
func (f fakeResult) CSV(w io.Writer) error {
	_, err := fmt.Fprintf(w, "col\n%s\n", string(f))
	return err
}
func (f fakeResult) JSON(w io.Writer) error {
	_, err := fmt.Fprintf(w, "{%q: %q}\n", "v", string(f))
	return err
}

func report(id, payload string, elapsed time.Duration) *runner.ExperimentReport {
	return &runner.ExperimentReport{ID: id, Name: "name-" + id, Title: "Title " + id,
		Result: fakeResult(payload), Elapsed: elapsed}
}

// emit renders all three artifact streams of a Result into one blob
// for byte-identity comparisons.
func emit(t *testing.T, r runner.Result) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(r.Render())
	if err := r.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.JSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSaveLookupRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{Seed: api.DefaultSeed}.WithDefaults()
	rep := report("T1", "payload", 3*time.Second)
	if err := s.Save("T1", cfg, rep); err != nil {
		t.Fatal(err)
	}
	entry, ok := s.Lookup("T1", cfg)
	if !ok {
		t.Fatal("fresh save not found")
	}
	if got, want := emit(t, entry.Result), emit(t, rep.Result); got != want {
		t.Errorf("replayed artifact differs:\n got %q\nwant %q", got, want)
	}
	if entry.Elapsed != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", entry.Elapsed)
	}
	if entry.Telemetry != nil {
		t.Errorf("Telemetry = %+v, want nil (uninstrumented save)", entry.Telemetry)
	}
}

func TestLookupMissesOnFingerprintMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{Seed: api.DefaultSeed}.WithDefaults()
	if err := s.Save("F1", cfg, report("F1", "x", time.Second)); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]runner.Config{
		"seed":    {Seed: cfg.Seed + 1, Scale: cfg.Scale, Sources: cfg.Sources},
		"scale":   {Seed: cfg.Seed, Scale: cfg.Scale * 2, Sources: cfg.Sources},
		"sources": {Seed: cfg.Seed, Scale: cfg.Scale, Sources: cfg.Sources + 1},
		"block":   {Seed: cfg.Seed, Scale: cfg.Scale, BlockSize: cfg.BlockSize * 2},
	} {
		if _, ok := s.Lookup("F1", other); ok {
			t.Errorf("lookup hit despite changed %s", name)
		}
	}
	// Kernel workers and retry/timeout knobs must NOT invalidate
	// checkpoints: none of them changes a result or its telemetry.
	workers := cfg
	workers.Workers = 3
	if _, ok := s.Lookup("F1", workers); !ok {
		t.Error("a different worker count invalidated the checkpoint")
	}
	cfg.MaxAttempts, cfg.RetryBackoff, cfg.PerExperimentTimeout = 5, time.Second, time.Minute
	if _, ok := s.Lookup("F1", cfg); !ok {
		t.Error("fault-tolerance knobs invalidated the checkpoint")
	}
}

func TestLookupMissesOnTornEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.Config{Seed: api.DefaultSeed}.WithDefaults()
	if err := s.Save("X1", cfg, report("X1", "x", time.Second)); err != nil {
		t.Fatal(err)
	}
	// A crash mid-save never leaves meta.json without its artifacts —
	// but a corrupted directory might; Lookup must shrug it off.
	if err := os.Remove(filepath.Join(dir, "X1", "rows.csv")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("X1", cfg); ok {
		t.Error("torn entry (missing rows.csv) replayed")
	}
	// Corrupt meta.json → miss, not error.
	if err := os.WriteFile(filepath.Join(dir, "X1", "meta.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("X1", cfg); ok {
		t.Error("corrupt meta.json replayed")
	}
	// Absent entry → miss.
	if _, ok := s.Lookup("NOPE", cfg); ok {
		t.Error("absent entry replayed")
	}
}

func TestSaveRestoresTelemetry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	col.Add(telemetry.Matvecs, 42)
	snap := col.Snapshot()
	rep := report("F3", "x", time.Second)
	rep.Telemetry = &snap
	cfg := runner.Config{Seed: api.DefaultSeed}.WithDefaults()
	if err := s.Save("F3", cfg, rep); err != nil {
		t.Fatal(err)
	}
	entry, ok := s.Lookup("F3", cfg)
	if !ok {
		t.Fatal("lookup miss")
	}
	if entry.Telemetry == nil || entry.Telemetry.Get(telemetry.Matvecs) != 42 {
		t.Errorf("telemetry not restored: %+v", entry.Telemetry)
	}
}

func TestSaveRejectsMissingResult(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("T1", runner.Config{}, &runner.ExperimentReport{ID: "T1"}); err == nil {
		t.Error("nil result saved")
	}
	if err := s.Save("T1", runner.Config{}, nil); err == nil {
		t.Error("nil report saved")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

// renderRun renders a report's artifacts exactly as cmd/paperfigs
// concatenates them.
func renderRun(t *testing.T, rp *runner.Report) string {
	t.Helper()
	var b bytes.Buffer
	for _, e := range rp.Experiments {
		if e.Err != nil {
			continue
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", e.ID, e.Result.Render())
		if err := e.Result.CSV(&b); err != nil {
			t.Fatal(err)
		}
		if err := e.Result.JSON(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// newRegistry builds three deterministic fake experiments; calls
// counts driver invocations per ID, and failFirstB makes B's first
// attempt panic (the simulated crash trigger).
func newRegistry(calls *map[string]*atomic.Int32, bPanics *atomic.Bool) *runner.Registry {
	reg := runner.NewRegistry()
	for _, id := range []string{"A", "B", "C"} {
		id := id
		(*calls)[id] = &atomic.Int32{}
		reg.MustRegister(runner.Def{ID: id, Run: func(ctx context.Context, cfg runner.Config, obs runner.Observer) (runner.Result, error) {
			(*calls)[id].Add(1)
			if id == "B" && bPanics != nil && bPanics.Load() {
				panic("simulated crash")
			}
			return fakeResult(fmt.Sprintf("%s-seed%d", id, cfg.Seed)), nil
		}})
	}
	return reg
}

// TestResumeAfterCrashIsByteIdentical pins the acceptance criterion:
// a checkpointed run that dies mid-way, rerun with resume, skips the
// completed experiments and produces concatenated artifacts
// byte-identical to an uninterrupted run.
func TestResumeAfterCrashIsByteIdentical(t *testing.T) {
	cfg := runner.Config{Seed: 7}

	// The uninterrupted reference run (no checkpointing involved).
	calls := map[string]*atomic.Int32{}
	clean, err := (&runner.Runner{Registry: newRegistry(&calls, nil), Jobs: 1}).
		Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(t, clean)

	// Run 1: checkpointed, B panics — A and C complete and persist, B
	// fails. (A process kill between experiments looks the same to the
	// store: completed entries on disk, the rest absent.)
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bPanics atomic.Bool
	bPanics.Store(true)
	calls1 := map[string]*atomic.Int32{}
	r1 := &runner.Runner{Registry: newRegistry(&calls1, &bPanics), Jobs: 1, Checkpoint: store}
	if _, err := r1.Run(context.Background(), cfg); err == nil {
		t.Fatal("crashing run reported success")
	}

	// Run 2: resume. B heals; A and C must replay without re-running.
	bPanics.Store(false)
	calls2 := map[string]*atomic.Int32{}
	r2 := &runner.Runner{Registry: newRegistry(&calls2, &bPanics), Jobs: 1, Checkpoint: store}
	resumed, err := r2.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"A", "C"} {
		if n := calls2[id].Load(); n != 0 {
			t.Errorf("%s re-ran %d times on resume, want replay", id, n)
		}
	}
	if n := calls2["B"].Load(); n != 1 {
		t.Errorf("B ran %d times on resume, want 1", n)
	}
	for _, e := range resumed.Experiments {
		wantResumed := e.ID != "B"
		if e.Resumed != wantResumed {
			t.Errorf("%s.Resumed = %v, want %v", e.ID, e.Resumed, wantResumed)
		}
	}
	if got := renderRun(t, resumed); got != want {
		t.Errorf("resumed artifacts differ from uninterrupted run:\n got %q\nwant %q", got, want)
	}
	if !strings.Contains(resumed.Summary(), "resumed from checkpoint") {
		t.Errorf("Summary does not surface resume:\n%s", resumed.Summary())
	}

	// Run 3: a different seed must invalidate every entry.
	calls3 := map[string]*atomic.Int32{}
	r3 := &runner.Runner{Registry: newRegistry(&calls3, &bPanics), Jobs: 1, Checkpoint: store}
	if _, err := r3.Run(context.Background(), runner.Config{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	for id, c := range calls3 {
		if c.Load() != 1 {
			t.Errorf("%s did not re-run under a new seed", id)
		}
	}
}

// TestCheckpointFailureDoesNotFailRun: an unwritable store degrades
// to a KindCheckpointFailed event, not a run failure.
func TestCheckpointFailureDoesNotFailRun(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the store so saves fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	calls := map[string]*atomic.Int32{}
	var failures []error
	obs := runner.ObserverFunc(func(e runner.Event) {
		if e.Kind == runner.KindCheckpointFailed {
			failures = append(failures, e.Err)
		}
	})
	r := &runner.Runner{Registry: newRegistry(&calls, nil), Jobs: 1,
		Checkpoint: store, Observer: obs}
	if _, err := r.Run(context.Background(), runner.Config{}); err != nil {
		t.Fatalf("unwritable checkpoint store failed the run: %v", err)
	}
	if len(failures) != 3 {
		t.Errorf("checkpoint-failed events = %d, want 3", len(failures))
	}
}

func TestFingerprintStability(t *testing.T) {
	cfg := runner.Config{Seed: api.DefaultSeed}.WithDefaults()
	a, b := Fingerprint("T1", cfg), Fingerprint("T1", cfg)
	if a != b {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint("F1", cfg) == a {
		t.Error("fingerprint ignores experiment ID")
	}
	// Zero-config normalizes through WithDefaults, so an explicit
	// default config and an all-zero one fingerprint identically
	// (except Seed, which defaults never rewrite).
	zero := runner.Config{Seed: api.DefaultSeed}
	if Fingerprint("T1", zero) != a {
		t.Error("WithDefaults-equivalent configs fingerprint differently")
	}
}
