package experiments

import (
	"bytes"
	"context"
	"testing"

	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// TestInstrumentedRunsAreByteIdentical is the acceptance test for the
// telemetry overhead contract: running registered drivers with a
// collector must change nothing about the artifacts — Render, CSV and
// JSON are byte-identical to the uninstrumented run — while the
// collector actually observes kernel work.
func TestInstrumentedRunsAreByteIdentical(t *testing.T) {
	ctx := context.Background()
	// One spectral-heavy, one sampling-heavy, one composite driver.
	for _, id := range []string{"T1", "F3", "X3"} {
		def, ok := runner.Default().Resolve(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		plain, err := def.Run(ctx, tiny, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		col := telemetry.New()
		cfg := tiny
		cfg.Collector = col
		instr, err := def.Run(ctx, cfg, nil)
		if err != nil {
			t.Fatalf("%s instrumented: %v", id, err)
		}

		if a, b := plain.Render(), instr.Render(); a != b {
			t.Errorf("%s: Render differs with a collector installed", id)
		}
		var pc, ic, pj, ij bytes.Buffer
		if err := plain.CSV(&pc); err != nil {
			t.Fatal(err)
		}
		if err := instr.CSV(&ic); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pc.Bytes(), ic.Bytes()) {
			t.Errorf("%s: CSV differs with a collector installed", id)
		}
		if err := plain.JSON(&pj); err != nil {
			t.Fatal(err)
		}
		if err := instr.JSON(&ij); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pj.Bytes(), ij.Bytes()) {
			t.Errorf("%s: JSON differs with a collector installed", id)
		}

		if col.Snapshot().Get(telemetry.EdgesScanned) == 0 {
			t.Errorf("%s: collector observed no kernel work (no edges counted)", id)
		}
	}
}
