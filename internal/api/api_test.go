package api

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{Seed: DefaultSeed}.WithDefaults()
	if p.Sources != DefaultSources || p.MaxWalk != DefaultMaxWalk ||
		p.SpectralTol != DefaultSpectralTol || p.Scale != DefaultScale {
		t.Errorf("WithDefaults() = %+v, want the canonical constants", p)
	}
	if p.DistShards != DefaultDistShards || p.DistWalks != DefaultDistWalks ||
		p.DistRounds != DefaultDistRounds {
		t.Errorf("WithDefaults() dist knobs = %d/%d/%d, want %d/%d/%d",
			p.DistShards, p.DistWalks, p.DistRounds,
			DefaultDistShards, DefaultDistWalks, DefaultDistRounds)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("WithDefaults().Validate() = %v", err)
	}
}

func TestParamsWithDefaultsKeepsSeed(t *testing.T) {
	p := Params{Seed: 0}.WithDefaults()
	if p.Seed != 0 {
		t.Errorf("WithDefaults rewrote the zero seed to %d", p.Seed)
	}
	if p.Sources != DefaultSources {
		t.Errorf("Sources = %d, want default %d", p.Sources, DefaultSources)
	}
	if p.Workers != 0 {
		t.Errorf("Workers = %d, want 0 (auto)", p.Workers)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Scale: -1},
		{Sources: -5},
		{MaxWalk: -1},
		{SpectralTol: -1e-9},
		{Method: "qr"},
		{Eps: 1.5},
		{EpsList: []float64{0.1, 2}},
		{Workers: -2},
		{DistShards: -1},
		{DistWalks: -8},
		{DistRounds: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero Params must validate (defaults fill it): %v", err)
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Op: OpSLEM, Graph: "physics-1"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []Request{
		{},
		{Op: "spectrum", Graph: "g"},
		{Op: OpSLEM},
		{Op: OpExperiment},
		{Op: OpSLEM, Graph: "g", SchemaVersion: 99},
		{Op: OpSLEM, Graph: "g", TimeoutMS: -1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", r)
		}
	}
	if err := (Request{Op: OpExperiment, Experiment: "T1"}).Validate(); err != nil {
		t.Errorf("experiment request needs no graph: %v", err)
	}
}

// TestParamsWireNames pins the stable snake_case JSON names of the
// versioned schema: renaming any of these is a schema break and must
// bump SchemaVersion.
func TestParamsWireNames(t *testing.T) {
	req := Request{
		SchemaVersion: SchemaVersion,
		Op:            OpCDF,
		Graph:         "physics-1",
		Params: Params{
			Scale: 0.01, Seed: 7, Sources: 10, MaxWalk: 50,
			SpectralTol: 1e-7, BlockSize: 8, Workers: 2,
			Method: MethodPower, Eps: 0.1, EpsList: []float64{0.25},
			DistShards: 4, DistWalks: 32, DistRounds: 100,
		},
		TimeoutMS: 1000,
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"schema_version"`, `"op"`, `"graph"`, `"params"`, `"timeout_ms"`,
		`"scale"`, `"seed"`, `"sources"`, `"max_walk"`, `"spectral_tol"`,
		`"block_size"`, `"workers"`, `"method"`, `"eps"`, `"eps_list"`,
		`"dist_shards"`, `"dist_walks"`, `"dist_rounds"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("wire document missing stable key %s:\n%s", key, raw)
		}
	}
}

func TestFingerprint(t *testing.T) {
	base := Request{Op: OpSLEM, Graph: "g", Params: Params{Seed: 1}}
	fp := Fingerprint(base, "hashA")

	if got := Fingerprint(base, "hashA"); got != fp {
		t.Error("fingerprint is not deterministic")
	}
	// Workers and BlockSize are byte-identity knobs: they must share
	// the fingerprint so concurrent variants dedup onto one solve.
	ident := base
	ident.Params.Workers = 4
	ident.Params.BlockSize = 16
	if got := Fingerprint(ident, "hashA"); got != fp {
		t.Error("workers/block_size changed the fingerprint; they are byte-identity knobs")
	}
	// DistShards is a layout knob with the same contract: the distmix
	// estimate is shard-count invariant, so shard count must dedup too.
	ident = base
	ident.Params.DistShards = 32
	if got := Fingerprint(ident, "hashA"); got != fp {
		t.Error("dist_shards changed the fingerprint; the estimate is shard-count invariant")
	}
	// Everything output-determining must change it.
	for name, req := range map[string]Request{
		"op":          {Op: OpBounds, Graph: "g", Params: Params{Seed: 1}},
		"seed":        {Op: OpSLEM, Graph: "g", Params: Params{Seed: 2}},
		"sources":     {Op: OpSLEM, Graph: "g", Params: Params{Seed: 1, Sources: 7}},
		"method":      {Op: OpSLEM, Graph: "g", Params: Params{Seed: 1, Method: MethodPower}},
		"dist_walks":  {Op: OpSLEM, Graph: "g", Params: Params{Seed: 1, DistWalks: 128}},
		"dist_rounds": {Op: OpSLEM, Graph: "g", Params: Params{Seed: 1, DistRounds: 77}},
	} {
		if got := Fingerprint(req, "hashA"); got == fp {
			t.Errorf("varying %s kept the fingerprint", name)
		}
	}
	if got := Fingerprint(base, "hashB"); got == fp {
		t.Error("graph hash does not reach the fingerprint")
	}
}
