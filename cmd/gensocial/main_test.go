package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runDataset calls run the way `gensocial -dataset wiki-vote -scale
// <scale> -o <out>` does.
func runDataset(scale float64, out string) error {
	return run("wiki-vote", scale, "", 10_000, 5, 0.01, 0.1, 0.05, 0.0005, 1, out, false)
}

func TestDatasetRejectsBadScale(t *testing.T) {
	dir := t.TempDir()
	for i, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		out := filepath.Join(dir, fmt.Sprintf("g%d.txt", i))
		err := runDataset(scale, out)
		if err == nil || !strings.Contains(err.Error(), "-scale must be finite and positive") {
			t.Errorf("scale %v: err = %v, want a -scale error", scale, err)
		}
		if _, serr := os.Stat(out); !os.IsNotExist(serr) {
			t.Errorf("scale %v: wrote %s", scale, out)
		}
	}
}

func TestDatasetWritesGraph(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := runDataset(0.01, out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("no graph written: %v", err)
	}
}
