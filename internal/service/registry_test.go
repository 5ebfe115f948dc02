package service

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixtime/internal/atomicfile"
	"mixtime/internal/datasets"
	"mixtime/internal/graphio"
)

func TestRegistryDatasets(t *testing.T) {
	r := NewRegistry()
	e, err := r.AddDataset("physics-1", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph.NumNodes() < 2 || e.Hash == "" {
		t.Fatalf("implausible entry: %+v", e)
	}
	if _, err := r.AddDataset("physics-1", 0.002, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.AddDataset("orkut-prime", 0.002, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := r.AddDataset("dblp", scale, 1); err == nil {
			t.Fatalf("non-finite scale %v accepted", scale)
		}
	}
	if _, ok := r.Get("physics-1"); !ok {
		t.Fatal("Get missed a registered graph")
	}
	if got := len(r.List()); got != 1 {
		t.Fatalf("List len = %d, want 1", got)
	}
}

func TestRegistryHashIdentity(t *testing.T) {
	r := NewRegistry()
	a, err := r.AddDataset("physics-1", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.AddDataset("dblp", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash == b.Hash {
		t.Fatal("distinct graphs share a content hash")
	}
	// Same generation, different registry: the hash is a function of
	// the graph alone.
	r2 := NewRegistry()
	a2, err := r2.AddDataset("physics-1", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != a2.Hash {
		t.Fatal("identical graphs hash differently across registries")
	}
}

func TestRegistryLoadDir(t *testing.T) {
	dir := t.TempDir()
	d, err := datasets.ByName("physics-1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.002, 1)
	if err := graphio.SaveFile(filepath.Join(dir, "snap.mixg"), g); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	n, err := r.LoadDir(dir)
	if err != nil || n != 1 {
		t.Fatalf("LoadDir = %d, %v; want 1, nil", n, err)
	}
	e, ok := r.Get("snap")
	if !ok {
		t.Fatal("stem-keyed entry missing")
	}
	if !strings.HasPrefix(e.Origin, "file:") {
		t.Fatalf("origin = %q, want file: prefix", e.Origin)
	}

	// An unreadable file fails the whole load — no half-served
	// registry.
	if err := os.WriteFile(filepath.Join(dir, "junk.txt"), []byte("not a graph\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry().LoadDir(dir); err == nil {
		t.Fatal("corrupt file did not fail LoadDir")
	}
}

// TestLoadDirSkipsTempLeftovers: a snapshot write killed mid-way
// leaves a torn atomicfile temp file in the -graphs directory; it
// stops neither LoadDir nor LoadDirMapped, and names no graph.
func TestLoadDirSkipsTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	d, err := datasets.ByName("physics-1")
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap.mixg")
	if err := graphio.SaveFile(snap, d.Generate(0.002, 1)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, ".next.mixg.123456.tmp")
	if !atomicfile.IsTemp(leftover) {
		t.Fatalf("%s is not an atomicfile temp name", leftover)
	}
	if err := os.WriteFile(leftover, raw[:len(raw)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(*Registry, string) (int, error){
		"LoadDir":       (*Registry).LoadDir,
		"LoadDirMapped": (*Registry).LoadDirMapped,
	} {
		r := NewRegistry()
		n, err := load(r, dir)
		if err != nil || n != 1 || r.Len() != 1 {
			t.Errorf("%s = %d, %v (%d graphs); want the one snapshot", name, n, err, r.Len())
		}
		if _, ok := r.Get("snap"); !ok {
			t.Errorf("%s: snapshot missing", name)
		}
		r.Close()
	}
}

func TestRegistryLoadDirMapped(t *testing.T) {
	dir := t.TempDir()
	d, err := datasets.ByName("physics-1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.002, 1)
	if err := graphio.SaveFile(filepath.Join(dir, "snap.mixg"), g); err != nil {
		t.Fatal(err)
	}
	// A gzip snapshot exercises the heap fallback inside the mapped
	// loader.
	if err := graphio.SaveFile(filepath.Join(dir, "zsnap.mixg.gz"), g); err != nil {
		t.Fatal(err)
	}

	heap := NewRegistry()
	if _, err := heap.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	n, err := r.LoadDirMapped(dir)
	if err != nil || n != 2 {
		t.Fatalf("LoadDirMapped = %d, %v; want 2, nil", n, err)
	}
	for _, name := range []string{"snap", "zsnap"} {
		he, _ := heap.Get(name)
		me, ok := r.Get(name)
		if !ok {
			t.Fatalf("%s missing from mapped registry", name)
		}
		// Identical hashes ⇒ the mapped path serves the same graph.
		if he.Hash != me.Hash {
			t.Fatalf("%s: mapped hash %s != heap hash %s", name, me.Hash, he.Hash)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}
