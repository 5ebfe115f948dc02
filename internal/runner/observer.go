package runner

import (
	"sync"
	"time"
)

// EventKind classifies a progress event.
type EventKind int

const (
	// KindExperimentStarted fires when a worker picks an experiment up.
	KindExperimentStarted EventKind = iota
	// KindExperimentFinished fires when an experiment returns; Err is
	// its error (nil on success) and Elapsed its wall time.
	KindExperimentFinished
	// KindDatasetDone fires when a driver finishes one dataset (or
	// dataset-sized unit of work); Done/Total count datasets.
	KindDatasetDone
	// KindAttemptFailed fires when one attempt of an experiment fails;
	// Attempt is the 1-based attempt number, Err the failure and
	// Elapsed the attempt's wall time. The experiment may still
	// succeed on a later attempt.
	KindAttemptFailed
	// KindRetrying fires before a backoff sleep; Attempt is the
	// upcoming attempt number and Elapsed the backoff about to be
	// slept.
	KindRetrying
	// KindExperimentResumed fires when a checkpointed result is
	// replayed instead of re-running the experiment.
	KindExperimentResumed
	// KindCheckpointFailed fires when persisting a completed
	// experiment fails; the run itself stays successful, but the
	// experiment will re-run on resume.
	KindCheckpointFailed
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case KindExperimentStarted:
		return "experiment-started"
	case KindExperimentFinished:
		return "experiment-finished"
	case KindDatasetDone:
		return "dataset-done"
	case KindAttemptFailed:
		return "attempt-failed"
	case KindRetrying:
		return "retrying"
	case KindExperimentResumed:
		return "experiment-resumed"
	case KindCheckpointFailed:
		return "checkpoint-failed"
	default:
		return "unknown"
	}
}

// Event is one structured progress notification. Fields beyond Kind
// are filled as applicable; the runner stamps Experiment with the
// registry ID, so drivers only report what they know locally.
type Event struct {
	Kind EventKind
	// Experiment is the registry ID (e.g. "F3").
	Experiment string
	// Dataset names the dataset the event concerns, if any.
	Dataset string
	// Done/Total count completed units (datasets, panels, epochs).
	Done, Total int
	// Attempt is the 1-based attempt number on KindAttemptFailed (the
	// attempt that failed) and KindRetrying (the attempt about to
	// start) events.
	Attempt int
	// Elapsed is the wall time of the finished unit, when measured.
	Elapsed time.Duration
	// Err is the failure attached to a finished experiment.
	Err error
}

// Observer receives progress events. Implementations used with the
// runner need not be safe for concurrent use: the runner serializes
// deliveries from its worker pool.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent calls f.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Emit delivers e to obs if obs is non-nil. Drivers call this so a
// nil observer means "no observability" without nil checks anywhere.
func Emit(obs Observer, e Event) {
	if obs != nil {
		obs.OnEvent(e)
	}
}

// lockedObserver serializes deliveries from concurrent workers onto a
// possibly non-thread-safe user observer.
type lockedObserver struct {
	mu    sync.Mutex
	inner Observer
}

func (l *lockedObserver) OnEvent(e Event) {
	if l.inner == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.OnEvent(e)
}

// stampedObserver fills Event.Experiment with the registry ID before
// forwarding, so driver code stays ID-agnostic.
type stampedObserver struct {
	inner Observer
	id    string
}

func (s stampedObserver) OnEvent(e Event) {
	if e.Experiment == "" {
		e.Experiment = s.id
	}
	s.inner.OnEvent(e)
}
