package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParseRejectsGarbage pins the spec grammar's error surface.
func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"panic",
		"panic=",
		"panic=2",       // probability out of range
		"panic=-0.5",    //
		"panic=0.5:-3",  // negative cap
		"latency=syrup", // not a duration
		"latency=-5ms",
		"seed=banana",
		"chaos=1", // unknown key
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
	good := []string{
		"seed=7",
		"panic=1",
		"panic=0.25:3,error=0.1",
		"latency=40ms",
		"latency=40ms:0.5",
		"seed=7,panic=1:4,latency=40ms",
		" seed=1 , error=1:2 ",
	}
	for _, spec := range good {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

// TestNilInjectorIsInert pins the zero-cost disarmed path.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Inject(context.Background()); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if got := in.String(); got != "faults: disarmed" {
		t.Fatalf("nil injector String() = %q", got)
	}
}

// TestCappedAlwaysFire pins the determinism contract the chaos smoke
// leans on: probability 1 with a cap fires exactly that many times,
// first, regardless of anything else in the spec.
func TestCappedAlwaysFire(t *testing.T) {
	in, err := Parse("seed=7,panic=1:3,error=1:2")
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []string
	for i := 0; i < 8; i++ {
		func() {
			defer func() {
				if v := recover(); v != nil {
					outcomes = append(outcomes, "panic")
					if !strings.Contains(v.(string), "injected solve panic") {
						t.Errorf("panic value %v lacks the marker", v)
					}
				}
			}()
			if err := in.Inject(context.Background()); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Errorf("injected error %v is not ErrInjected", err)
				}
				outcomes = append(outcomes, "error")
				return
			}
			outcomes = append(outcomes, "none")
		}()
	}
	want := []string{"panic", "panic", "panic", "error", "error", "none", "none", "none"}
	if got := strings.Join(outcomes, ","); got != strings.Join(want, ",") {
		t.Fatalf("outcome sequence = %s, want %s", got, strings.Join(want, ","))
	}
}

// TestSeededSequenceIsReproducible: two injectors with the same seed
// make identical probabilistic decisions; a different seed diverges
// (with overwhelming probability over 200 draws).
func TestSeededSequenceIsReproducible(t *testing.T) {
	run := func(spec string) string {
		in, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 200; i++ {
			_, act := in.draw()
			b.WriteByte("nep"[act])
		}
		return b.String()
	}
	a := run("seed=11,error=0.3")
	if b := run("seed=11,error=0.3"); a != b {
		t.Fatal("same seed produced different sequences")
	}
	if c := run("seed=12,error=0.3"); a == c {
		t.Fatal("different seeds produced identical sequences")
	}
	if !strings.Contains(a, "e") || !strings.Contains(a, "n") {
		t.Fatalf("p=0.3 sequence is degenerate: %s", a)
	}
}

// TestLatencyHonorsContext: the injected sleep aborts when the solve
// context dies, returning its error instead of stalling shutdown.
func TestLatencyHonorsContext(t *testing.T) {
	in, err := Parse("latency=10s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	if err := in.Inject(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(t0) > 5*time.Second {
		t.Fatal("injected latency ignored the dying context")
	}
}
