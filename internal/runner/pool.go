package runner

import (
	"context"
	"fmt"
	"runtime"
)

// Pool is a context-aware bounded-concurrency gate: at most Size
// holders at once, acquisition aborting when the caller's context
// dies instead of queueing forever. The experiment Runner bounds a
// batch with its Jobs worker loop; Pool is the same discipline
// packaged for open-ended callers — the mixtimed service schedules
// every query solve through one, so a traffic burst degrades into an
// orderly queue with deadline-respecting waiters rather than a
// thundering herd of goroutines.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a pool with n slots (n <= 0 means GOMAXPROCS).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, n)}
}

// Size returns the slot bound.
func (p *Pool) Size() int { return cap(p.slots) }

// Acquire blocks until a slot frees or ctx dies; the caller must
// Release exactly once per successful Acquire.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("runner: pool acquire: %w", ctx.Err())
	}
}

// TryAcquire takes a slot without blocking; false means the pool is
// saturated.
func (p *Pool) TryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (p *Pool) Release() {
	<-p.slots
}
