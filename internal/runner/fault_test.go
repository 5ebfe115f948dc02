package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// collectEvents returns an observer appending every event to the
// returned slice. The runner serializes deliveries, so no lock is
// needed as long as the slice is only read after Run returns.
func collectEvents() (*[]Event, Observer) {
	var events []Event
	return &events, ObserverFunc(func(e Event) { events = append(events, e) })
}

func kinds(events []Event, k EventKind) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestPanicIsolatedWithStack(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "BOOM", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		panic("injected panic")
	}})
	reg.MustRegister(Def{ID: "OK1", Run: okRun("fine-1")})
	reg.MustRegister(Def{ID: "OK2", Run: okRun("fine-2")})

	r := &Runner{Registry: reg, Jobs: 3}
	report, err := r.Run(context.Background(), Config{})
	if err == nil {
		t.Fatal("run with panicking experiment reported success")
	}
	boom := report.Experiments[0]
	var pe *PanicError
	if !errors.As(boom.Err, &pe) {
		t.Fatalf("BOOM.Err = %v, want *PanicError", boom.Err)
	}
	if pe.Experiment != "BOOM" || pe.Value != "injected panic" {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "fault_test") {
		t.Errorf("stack does not name the panic site:\n%s", pe.Stack)
	}
	// Sibling experiments completed normally.
	for _, e := range report.Experiments[1:] {
		if e.Err != nil || e.Skipped || e.Result == nil {
			t.Errorf("%s did not survive sibling panic: %+v", e.ID, e)
		}
	}
}

// TestPanicDoesNotPerturbSiblingOutput pins the acceptance criterion:
// sibling artifacts of a panicking experiment are byte-identical to a
// clean run's.
func TestPanicDoesNotPerturbSiblingOutput(t *testing.T) {
	render := func(report *Report, skip string) string {
		var b strings.Builder
		for _, e := range report.Experiments {
			if e.ID == skip {
				continue
			}
			if e.Result == nil {
				t.Fatalf("%s has no result", e.ID)
			}
			fmt.Fprintf(&b, "== %s ==\n%s\n", e.ID, e.Result.Render())
		}
		return b.String()
	}

	build := func(panicky bool) *Registry {
		reg := NewRegistry()
		reg.MustRegister(Def{ID: "A", Run: okRun("alpha")})
		reg.MustRegister(Def{ID: "MID", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
			if panicky {
				panic("mid-run panic")
			}
			return textResult("mid"), nil
		}})
		reg.MustRegister(Def{ID: "B", Run: okRun("beta")})
		return reg
	}

	clean, err := (&Runner{Registry: build(false), Jobs: 2}).Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := (&Runner{Registry: build(true), Jobs: 2}).Run(context.Background(), Config{})
	if err == nil {
		t.Fatal("faulty run reported success")
	}
	if got, want := render(faulty, "MID"), render(clean, "MID"); got != want {
		t.Errorf("sibling artifacts diverged:\n got %q\nwant %q", got, want)
	}
}

func TestRetrySucceedsOnSecondAttempt(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "FLAKY", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient failure")
		}
		return textResult("recovered"), nil
	}})
	events, obs := collectEvents()
	r := &Runner{Registry: reg, Observer: obs}
	cfg := Config{MaxAttempts: 3, RetryBackoff: time.Millisecond}
	report, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := report.Experiments[0]
	if e.Attempts != 2 || e.Err != nil || e.Result.Render() != "recovered" {
		t.Fatalf("report = %+v, want success on attempt 2", e)
	}
	failed := kinds(*events, KindAttemptFailed)
	if len(failed) != 1 || failed[0].Attempt != 1 || failed[0].Err == nil {
		t.Errorf("attempt-failed events = %+v, want one for attempt 1", failed)
	}
	retrying := kinds(*events, KindRetrying)
	if len(retrying) != 1 || retrying[0].Attempt != 2 || retrying[0].Elapsed != time.Millisecond {
		t.Errorf("retrying events = %+v, want one for attempt 2 with 1ms backoff", retrying)
	}
	if !strings.Contains(report.Summary(), "ok (attempt 2)") {
		t.Errorf("Summary does not show the attempt trail:\n%s", report.Summary())
	}
}

func TestRetryBackoffDoublesAndPanicsRetry(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "P", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		if calls.Add(1) < 3 {
			panic("flaky panic")
		}
		return textResult("third time lucky"), nil
	}})
	events, obs := collectEvents()
	r := &Runner{Registry: reg, Observer: obs}
	cfg := Config{MaxAttempts: 3, RetryBackoff: time.Millisecond}
	report, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Experiments[0].Attempts; got != 3 {
		t.Fatalf("Attempts = %d, want 3", got)
	}
	retrying := kinds(*events, KindRetrying)
	if len(retrying) != 2 {
		t.Fatalf("retrying events = %d, want 2", len(retrying))
	}
	if retrying[0].Elapsed != time.Millisecond || retrying[1].Elapsed != 2*time.Millisecond {
		t.Errorf("backoffs = %v, %v; want 1ms then 2ms (exponential)",
			retrying[0].Elapsed, retrying[1].Elapsed)
	}
}

func TestRetriesExhaustedReportsLastError(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "DOOMED", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		return nil, fmt.Errorf("failure %d", calls.Add(1))
	}})
	r := &Runner{Registry: reg}
	report, err := r.Run(context.Background(), Config{MaxAttempts: 3})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	e := report.Experiments[0]
	if e.Attempts != 3 || e.Err == nil || !strings.Contains(e.Err.Error(), "failure 3") {
		t.Fatalf("report = %+v, want last error after 3 attempts", e)
	}
}

func TestPerExperimentTimeoutDoesNotCancelRun(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "HUNG", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		<-ctx.Done() // a hung driver that at least honors cancellation
		return nil, ctx.Err()
	}})
	reg.MustRegister(Def{ID: "AFTER", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		// Scheduled after HUNG's deadline fired (Jobs: 1): succeeding
		// here proves the timeout killed the attempt, not the run.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return textResult("still running"), nil
	}})
	r := &Runner{Registry: reg, Jobs: 1}
	cfg := Config{PerExperimentTimeout: 10 * time.Millisecond}
	report, err := r.Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("timed-out experiment reported success")
	}
	hung := report.Experiments[0]
	if !errors.Is(hung.Err, context.DeadlineExceeded) {
		t.Errorf("HUNG.Err = %v, want DeadlineExceeded", hung.Err)
	}
	if !strings.Contains(hung.Err.Error(), "timed out") {
		t.Errorf("HUNG.Err = %v, want per-attempt timeout wrapping", hung.Err)
	}
	after := report.Experiments[1]
	if after.Err != nil || after.Skipped {
		t.Errorf("AFTER was dragged down by HUNG's deadline: %+v", after)
	}
}

func TestTimeoutRetriesUntilBudgetSpent(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "H", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return textResult("ok"), nil
	}})
	r := &Runner{Registry: reg}
	cfg := Config{MaxAttempts: 2, PerExperimentTimeout: 10 * time.Millisecond}
	report, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("timeout on attempt 1 not retried: %v", err)
	}
	if report.Experiments[0].Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", report.Experiments[0].Attempts)
	}
}

func TestRunCancellationIsFatalDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "C", Run: func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		calls.Add(1)
		cancel() // the run dies while this experiment is failing
		return nil, errors.New("transient")
	}})
	r := &Runner{Registry: reg}
	cfg := Config{MaxAttempts: 5, RetryBackoff: time.Hour}
	start := time.Now()
	_, err := r.Run(ctx, cfg)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff ignored cancellation: took %v", elapsed)
	}
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("experiment attempted %d times under a cancelled run", n)
	}
}

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"plain error", errors.New("x"), ClassRetryable},
		{"panic", &PanicError{Experiment: "T1", Value: "v"}, ClassRetryable},
		{"deadline", context.DeadlineExceeded, ClassRetryable},
		{"wrapped deadline", fmt.Errorf("t: %w", context.DeadlineExceeded), ClassRetryable},
		{"cancelled", context.Canceled, ClassFatal},
		{"wrapped cancelled", fmt.Errorf("c: %w", context.Canceled), ClassFatal},
	}
	for _, c := range cases {
		if got := ClassifyFailure(c.err); got != c.want {
			t.Errorf("ClassifyFailure(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWrapRunHookInjectsFaults(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "T", Run: okRun("real")})
	var first atomic.Bool
	first.Store(true)
	r := &Runner{Registry: reg, WrapRun: func(d Def, run RunFunc) RunFunc {
		return func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
			if first.CompareAndSwap(true, false) {
				panic("injected by WrapRun")
			}
			return run(ctx, cfg, obs)
		}
	}}
	report, err := r.Run(context.Background(), Config{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := report.Experiments[0]
	if e.Attempts != 2 || e.Result.Render() != "real" {
		t.Fatalf("report = %+v, want real result on attempt 2", e)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k, want := range map[EventKind]string{
		KindAttemptFailed:     "attempt-failed",
		KindRetrying:          "retrying",
		KindExperimentResumed: "experiment-resumed",
		KindCheckpointFailed:  "checkpoint-failed",
		EventKind(99):         "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
