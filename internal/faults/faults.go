// Package faults is the deterministic fault-injection layer behind
// `mixtimed -inject` and `paperfigs -inject`: a seeded injector that
// can delay a unit of work, fail it with a transient error, or panic
// inside it, so the containment paths are exercisable on demand and
// testable byte-for-byte. The daemon fires it on every solve (recover
// barrier, load shedding, client retry); the experiment runner fires
// it on every attempt (recover barrier, retries, attempt deadlines).
//
// Determinism contract: all randomness comes from one seeded PCG
// stream consumed under a mutex, so the k-th Inject call draws the
// k-th value of the stream regardless of which goroutine issues it.
// A probability of 1 consumes no randomness at all — `panic=1:4`
// means "the first four solves panic, then the injector disarms",
// which is the fully deterministic shape the chaos smoke relies on.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a fault-injected transient error: the solve did
// not run, and an identical retry may succeed. The service layer
// reports it like any other solve failure; clients classify it as
// retryable by status, not by unwrapping this sentinel.
var ErrInjected = errors.New("faults: injected transient error")

// Injector decides, per solve, whether to inject a fault. Construct
// with Parse; a nil *Injector is valid and injects nothing, which is
// how the un-instrumented daemon pays zero cost.
type Injector struct {
	seed     uint64
	panicP   float64
	panicCap int64 // remaining panics; -1 = unlimited
	errP     float64
	errCap   int64 // remaining errors; -1 = unlimited
	latency  time.Duration
	latencyP float64

	mu  sync.Mutex
	rng *rand.Rand

	panics atomic.Int64 // numbers the injected panics
	errs   atomic.Int64 // numbers the injected errors
}

// Parse builds an injector from a comma-separated spec of k=v fields:
//
//	seed=N           PCG seed for the probability draws (default 1)
//	panic=P[:N]      panic inside the solve with probability P,
//	                 at most N times (omitted N = unlimited)
//	error=P[:N]      fail the solve with ErrInjected, same shape
//	latency=D[:P]    sleep D before the solve with probability P
//	                 (omitted P = always)
//
// Example: "seed=7,panic=1:4,latency=40ms" — the first four solves
// panic, and every solve stalls 40ms first.
func Parse(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty injection spec")
	}
	in := &Injector{seed: 1, panicCap: -1, errCap: -1, latencyP: 1}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok || v == "" {
			return nil, fmt.Errorf("faults: field %q is not key=value", field)
		}
		switch k {
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: seed %q: %w", v, err)
			}
			in.seed = seed
		case "panic":
			p, cap, err := parseProbCap(v)
			if err != nil {
				return nil, fmt.Errorf("faults: panic %q: %w", v, err)
			}
			in.panicP, in.panicCap = p, cap
		case "error":
			p, cap, err := parseProbCap(v)
			if err != nil {
				return nil, fmt.Errorf("faults: error %q: %w", v, err)
			}
			in.errP, in.errCap = p, cap
		case "latency":
			durStr, probStr, hasProb := strings.Cut(v, ":")
			d, err := time.ParseDuration(durStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: latency %q: bad duration", v)
			}
			in.latency = d
			if hasProb {
				p, err := parseProb(probStr)
				if err != nil {
					return nil, fmt.Errorf("faults: latency %q: %w", v, err)
				}
				in.latencyP = p
			}
		default:
			return nil, fmt.Errorf("faults: unknown field %q (want seed, panic, error or latency)", k)
		}
	}
	in.rng = rand.New(rand.NewPCG(in.seed, 0xfa17))
	return in, nil
}

// parseProbCap parses "P" or "P:N".
func parseProbCap(v string) (float64, int64, error) {
	probStr, capStr, hasCap := strings.Cut(v, ":")
	p, err := parseProb(probStr)
	if err != nil {
		return 0, 0, err
	}
	n := int64(-1)
	if hasCap {
		n, err = strconv.ParseInt(capStr, 10, 64)
		if err != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad cap %q", capStr)
		}
	}
	return p, n, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %q not in [0, 1]", s)
	}
	return p, nil
}

// action is what one Inject call resolved to, beyond an optional
// sleep.
type action int

const (
	actNone action = iota
	actError
	actPanic
)

// draw resolves the injected behavior for one solve. Draws are
// serialized so the decision sequence is a pure function of the seed.
// Panic is checked before error (the severer fault wins the slot);
// a probability of exactly 1 short-circuits without consuming
// randomness so capped always-fire specs stay schedule-independent.
func (in *Injector) draw() (sleep bool, act action) {
	in.mu.Lock()
	defer in.mu.Unlock()
	hit := func(p float64) bool {
		if p <= 0 {
			return false
		}
		return p >= 1 || in.rng.Float64() < p
	}
	if in.latency > 0 && hit(in.latencyP) {
		sleep = true
	}
	if in.panicCap != 0 && hit(in.panicP) {
		if in.panicCap > 0 {
			in.panicCap--
		}
		return sleep, actPanic
	}
	if in.errCap != 0 && hit(in.errP) {
		if in.errCap > 0 {
			in.errCap--
		}
		return sleep, actError
	}
	return sleep, actNone
}

// Inject applies at most one fault for the calling solve: an optional
// context-aware sleep, then either a transient error return or a
// panic. A nil injector injects nothing. The caller is expected to
// run under a recover barrier — that barrier is exactly what the
// panic mode exists to prove.
func (in *Injector) Inject(ctx context.Context) error {
	if in == nil {
		return nil
	}
	sleep, act := in.draw()
	if sleep {
		t := time.NewTimer(in.latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	switch act {
	case actError:
		return fmt.Errorf("%w #%d", ErrInjected, in.errs.Add(1))
	case actPanic:
		panic(fmt.Sprintf("faults: injected solve panic #%d", in.panics.Add(1)))
	}
	return nil
}

// String renders the armed configuration for startup logs.
func (in *Injector) String() string {
	if in == nil {
		return "faults: disarmed"
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", in.seed))
	if in.panicP > 0 && in.panicCap != 0 {
		parts = append(parts, fmt.Sprintf("panic=%v:%s", in.panicP, capString(in.panicCap)))
	}
	if in.errP > 0 && in.errCap != 0 {
		parts = append(parts, fmt.Sprintf("error=%v:%s", in.errP, capString(in.errCap)))
	}
	if in.latency > 0 && in.latencyP > 0 {
		parts = append(parts, fmt.Sprintf("latency=%v:%v", in.latency, in.latencyP))
	}
	return strings.Join(parts, ",")
}

func capString(c int64) string {
	if c < 0 {
		return "∞"
	}
	return strconv.FormatInt(c, 10)
}
