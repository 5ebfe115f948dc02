package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mixtime/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files and the work ledger")

// TestDocumentSchemaGolden pins the versioned JSON document schema:
// envelope keys, row field names, and the deterministic values of a
// seeded run. Any drift — a renamed field, a reordered envelope, a
// changed default — fails against the golden until the schema bump is
// deliberate (regenerate with `go test ./internal/experiments -run
// DocumentSchemaGolden -update`). `paperfigs -json` files and
// mixtimed OpExperiment responses both emit exactly this document.
func TestDocumentSchemaGolden(t *testing.T) {
	def, ok := runner.Default().Resolve("X3")
	if !ok {
		t.Fatal("Resolve(X3) failed")
	}
	res, err := def.Run(context.Background(), tiny, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "document_x3.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("document schema drifted from golden %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
