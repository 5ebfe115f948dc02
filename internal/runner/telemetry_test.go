package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mixtime/internal/telemetry"
)

// instrumentedRun returns a RunFunc that bumps the run's collector —
// standing in for a driver whose kernels count edges and matvecs.
func instrumentedRun(out string, matvecs, edges int64) RunFunc {
	return func(ctx context.Context, cfg Config, obs Observer) (Result, error) {
		if cfg.Collector != nil {
			cfg.Collector.Add(telemetry.Matvecs, matvecs)
			cfg.Collector.Add(telemetry.EdgesScanned, edges)
		}
		return textResult(out), nil
	}
}

// TestRunnerChildCollectorsMergeIntoParent verifies the attribution
// scheme: each experiment gets a fresh child collector (so parallel
// experiments don't blur together), its snapshot lands on the
// experiment report, and the run-wide parent holds the merged totals.
func TestRunnerChildCollectorsMergeIntoParent(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "A", Run: instrumentedRun("a", 10, 1000)})
	reg.MustRegister(Def{ID: "B", Run: instrumentedRun("b", 32, 4096)})

	parent := telemetry.New()
	r := &Runner{Registry: reg, Jobs: 2}
	rp, err := r.Run(context.Background(), Config{Collector: parent})
	if err != nil {
		t.Fatal(err)
	}

	perID := map[string]*telemetry.Snapshot{}
	for _, e := range rp.Experiments {
		if e.Telemetry == nil {
			t.Fatalf("%s: no telemetry snapshot on report", e.ID)
		}
		perID[e.ID] = e.Telemetry
	}
	if got := perID["A"].Get(telemetry.Matvecs); got != 10 {
		t.Errorf("A matvecs = %d, want 10", got)
	}
	if got := perID["B"].Get(telemetry.EdgesScanned); got != 4096 {
		t.Errorf("B edges = %d, want 4096", got)
	}

	merged := parent.Snapshot()
	if got := merged.Get(telemetry.Matvecs); got != 42 {
		t.Errorf("merged matvecs = %d, want 42", got)
	}
	if got := merged.Get(telemetry.EdgesScanned); got != 5096 {
		t.Errorf("merged edges = %d, want 5096", got)
	}
}

// TestRunnerNoCollectorMeansNoTelemetry pins the opt-in contract: an
// uninstrumented run carries no snapshots.
func TestRunnerNoCollectorMeansNoTelemetry(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "A", Run: instrumentedRun("a", 10, 1000)})
	r := &Runner{Registry: reg}
	rp, err := r.Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Experiments[0].Telemetry != nil {
		t.Error("uninstrumented run grew a telemetry snapshot")
	}
}

// TestTelemetrySnapshotEmissionDeterministic checks the Result-shaped
// emission of a populated snapshot: rendering CSV and JSON twice
// yields byte-identical output, and JSON round-trips.
func TestTelemetrySnapshotEmissionDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "A", Run: instrumentedRun("a", 7, 700)})
	parent := telemetry.New()
	r := &Runner{Registry: reg}
	rp, err := r.Run(context.Background(), Config{Collector: parent})
	if err != nil {
		t.Fatal(err)
	}
	snap := rp.Experiments[0].Telemetry
	for _, emit := range []struct {
		name string
		f    func(w *bytes.Buffer) error
	}{
		{"csv", func(w *bytes.Buffer) error { return snap.CSV(w) }},
		{"json", func(w *bytes.Buffer) error { return snap.JSON(w) }},
	} {
		var b1, b2 bytes.Buffer
		if err := emit.f(&b1); err != nil {
			t.Fatal(err)
		}
		if err := emit.f(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s emission not deterministic:\n%s\nvs\n%s", emit.name, b1.String(), b2.String())
		}
	}
}

// TestTelemetryTable checks the run-wide counter table: one row per
// instrumented experiment plus a sum row.
func TestTelemetryTable(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Def{ID: "A", Run: instrumentedRun("a", 10, 1000)})
	reg.MustRegister(Def{ID: "B", Run: instrumentedRun("b", 32, 4096)})
	parent := telemetry.New()
	r := &Runner{Registry: reg}
	rp, err := r.Run(context.Background(), Config{Collector: parent})
	if err != nil {
		t.Fatal(err)
	}
	table := rp.TelemetryTable()
	for _, want := range []string{"id", "matvecs", "A", "B", "sum", "5096", "42"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if rpEmpty := (&Report{}).TelemetryTable(); rpEmpty != "" {
		t.Errorf("empty report should render an empty table, got %q", rpEmpty)
	}
}
