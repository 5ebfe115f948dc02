package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mixtime/internal/faults"
)

// PanicError is a driver panic converted into an ordinary error by
// the runner's per-attempt recover. It keeps the process (and the
// sibling experiments on other workers) alive while preserving the
// panic value and the goroutine stack for the report.
type PanicError struct {
	// Experiment is the registry ID of the panicking experiment.
	Experiment string
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, captured inside the
	// deferred recover.
	Stack []byte
}

// Error summarizes the panic; the stack is available separately so
// one-line summaries stay one line.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Experiment, e.Value)
}

// FailureClass classifies one attempt's failure for the retry loop.
type FailureClass int

const (
	// ClassRetryable failures (panics, per-attempt timeouts, transient
	// driver errors) are eligible for another attempt while the retry
	// budget lasts.
	ClassRetryable FailureClass = iota
	// ClassFatal failures (run cancellation) stop the attempt loop
	// immediately.
	ClassFatal
)

// String names the class for logs and summaries.
func (c FailureClass) String() string {
	if c == ClassFatal {
		return "fatal"
	}
	return "retryable"
}

// ClassifyFailure classifies an attempt failure. Run cancellation
// (context.Canceled) is fatal; panics, per-attempt deadline hits and
// everything else (transient I/O, a truncated download) are
// retryable.
func ClassifyFailure(err error) FailureClass {
	if errors.Is(err, context.Canceled) {
		return ClassFatal
	}
	return ClassRetryable
}

// safeRun executes one attempt of run under recover, converting a
// driver panic into a *PanicError instead of crashing the process.
// The injector (nil = none) fires first, inside the same barrier and
// under the attempt's context.
func safeRun(ctx context.Context, id string, inj *faults.Injector, run RunFunc, cfg Config, obs Observer) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &PanicError{Experiment: id, Value: v, Stack: debug.Stack()}
		}
	}()
	if err := inj.Inject(ctx); err != nil {
		return nil, err
	}
	return run(ctx, cfg, obs)
}

// runAttempts drives one experiment through its retry/deadline
// budget: up to cfg.MaxAttempts attempts, each under a derived
// per-attempt deadline (cfg.PerExperimentTimeout), with exponential
// context-aware backoff (cfg.RetryBackoff doubling per retry) in
// between. It returns the first success or the last failure, plus
// the number of attempts consumed.
func (r *Runner) runAttempts(ctx context.Context, d Def, cfg Config, obs Observer) (Result, error, int) {
	attempts := cfg.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	tried := 0
	for attempt := 1; attempt <= attempts; attempt++ {
		tried = attempt
		// Drop the failed attempt's partial counters so a retried
		// success reports the same telemetry as a first-attempt success.
		if attempt > 1 {
			cfg.Collector.Reset()
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.PerExperimentTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, cfg.PerExperimentTimeout)
		}
		t0 := time.Now()
		res, err := safeRun(actx, d.ID, r.Injector, d.Run, cfg, obs)
		cancel()
		if err == nil {
			return res, nil, attempt
		}
		// A deadline hit on the attempt context while the run context is
		// healthy is a per-experiment timeout, not a cancellation.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil && cfg.PerExperimentTimeout > 0 {
			err = fmt.Errorf("attempt %d timed out after %v: %w",
				attempt, cfg.PerExperimentTimeout, err)
		}
		lastErr = err
		class := ClassifyFailure(err)
		Emit(obs, Event{Kind: KindAttemptFailed, Experiment: d.ID,
			Attempt: attempt, Elapsed: time.Since(t0), Err: err})
		if class == ClassFatal || attempt == attempts || ctx.Err() != nil {
			break
		}
		backoff := cfg.RetryBackoff << (attempt - 1)
		Emit(obs, Event{Kind: KindRetrying, Experiment: d.ID,
			Attempt: attempt + 1, Elapsed: backoff, Err: err})
		if !sleepCtx(ctx, backoff) {
			break
		}
	}
	return nil, lastErr, tried
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports
// whether the full sleep elapsed. A non-positive d returns true
// immediately.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
