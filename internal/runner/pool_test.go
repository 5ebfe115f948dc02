package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolBound proves no more than Size holders run at once even
// under heavy goroutine pressure.
func TestPoolBound(t *testing.T) {
	const slots, workers = 3, 40
	p := NewPool(slots)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			if err := p.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer p.Release()
			cur := inFlight.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Errorf("observed %d concurrent holders, pool bound is %d", got, slots)
	}
	for i := 0; i < slots; i++ {
		if !p.TryAcquire() {
			t.Fatalf("slot %d still held after all work done", i)
		}
	}
}

// TestPoolAcquireCancellation proves a waiter blocked on a saturated
// pool aborts when its context dies, without corrupting the slot
// accounting.
func TestPoolAcquireCancellation(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); err == nil {
		t.Fatal("Acquire on a saturated pool returned nil under a dead context")
	}
	p.Release()
	// The slot released by the holder must be acquirable again.
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("pool unusable after a cancelled waiter: %v", err)
	}
	p.Release()
}

func TestPoolDefaultsAndTry(t *testing.T) {
	if NewPool(0).Size() <= 0 {
		t.Error("NewPool(0) must default to a positive size")
	}
	p := NewPool(1)
	if !p.TryAcquire() {
		t.Fatal("TryAcquire on an empty pool failed")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire on a full pool succeeded")
	}
	p.Release()
}
