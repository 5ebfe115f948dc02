package core

import (
	"context"
	"errors"
	"testing"

	"mixtime/internal/api"
	"mixtime/internal/gen"
)

func TestMeasureContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gen.BarabasiAlbert(300, 3, rngFor(1))
	m, err := MeasureContext(ctx, g, Options{Sources: 10, MaxWalk: 50})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	if m != nil {
		t.Fatal("got a measurement from a cancelled context")
	}
	// The sampling-only path must notice too (no spectral stage to
	// absorb the cancellation).
	if _, err := MeasureContext(ctx, g, Options{SkipSpectral: true, Sources: 10, MaxWalk: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sampling-only err = %v, want wrap of context.Canceled", err)
	}
}

func TestZeroSeedIsUsableAndReproducible(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rngFor(2))
	measure := func(seed uint64) *Measurement {
		m, err := MeasureContext(context.Background(), g, Options{Seed: seed, Sources: 15, MaxWalk: 30})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := measure(0), measure(0)
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("source counts differ: %d vs %d", len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		if a.Sources[i] != b.Sources[i] {
			t.Fatalf("seed 0 is not reproducible: sources differ at %d", i)
		}
	}
	// Seed 0 must be its own stream, not silently rewritten to the
	// default seed 1.
	c := measure(1)
	same := len(a.Sources) == len(c.Sources)
	if same {
		for i := range a.Sources {
			if a.Sources[i] != c.Sources[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 0 sampled the same sources as seed 1 — zero seed treated as sentinel")
	}
}

func TestDefaultOptionsCarryCanonicalValues(t *testing.T) {
	o := DefaultOptions()
	if o.Sources != api.DefaultSources || o.MaxWalk != api.DefaultMaxWalk ||
		o.SpectralTol != api.DefaultSpectralTol || o.Seed != api.DefaultSeed {
		t.Fatalf("DefaultOptions() = %+v, want the api canonical defaults", o)
	}
	// withDefaults fills everything except Seed.
	d := Options{}.withDefaults()
	if d.Sources != api.DefaultSources || d.MaxWalk != api.DefaultMaxWalk || d.SpectralTol != api.DefaultSpectralTol {
		t.Fatalf("withDefaults() = %+v", d)
	}
	if d.Seed != 0 {
		t.Fatalf("withDefaults rewrote Seed to %d; zero must stay zero", d.Seed)
	}
}

func TestMeasureReportsProgress(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rngFor(3))
	stages := map[string]int{}
	_, err := MeasureContext(context.Background(), g, Options{Sources: 8, MaxWalk: 20,
		Progress: func(stage string, done, total int) { stages[stage]++ }})
	if err != nil {
		t.Fatal(err)
	}
	if stages["spectral"] == 0 {
		t.Error("no spectral progress reported")
	}
	if stages["sampling"] == 0 {
		t.Error("no sampling progress reported")
	}
}
