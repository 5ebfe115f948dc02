package cliutil

import (
	"os"
	"path/filepath"
	"testing"

	"mixtime/internal/api"
	"mixtime/internal/gen"
	"mixtime/internal/graphio"
)

func TestParseDatasetRef(t *testing.T) {
	name, scale, ok, err := ParseDatasetRef("dataset:physics-1:0.5")
	if err != nil || !ok || name != "physics-1" || scale != 0.5 {
		t.Fatalf("got %q %v %v %v", name, scale, ok, err)
	}
	name, scale, ok, err = ParseDatasetRef("dataset:enron")
	if err != nil || !ok || name != "enron" || scale != api.DefaultScale {
		t.Fatalf("default scale: %q %v %v %v", name, scale, ok, err)
	}
	if _, _, ok, _ := ParseDatasetRef("somefile.txt"); ok {
		t.Fatal("file path treated as reference")
	}
	if _, _, _, err := ParseDatasetRef("dataset:enron:zero"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if _, _, _, err := ParseDatasetRef("dataset:enron:-1"); err == nil {
		t.Fatal("negative scale accepted")
	}
	for _, bad := range []string{"NaN", "+Inf", "Inf"} {
		if _, _, _, err := ParseDatasetRef("dataset:wiki-vote:" + bad); err == nil {
			t.Fatalf("non-finite scale %s accepted", bad)
		}
	}
}

func TestLoadGraphArg(t *testing.T) {
	g, err := LoadGraphArg("dataset:wiki-vote:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 100 {
		t.Fatalf("dataset ref yielded %d nodes", g.NumNodes())
	}
	if _, err := LoadGraphArg("dataset:myspace"); err == nil {
		t.Fatal("unknown dataset accepted")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	want := gen.Ring(12)
	if err := graphio.SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraphArg(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != 12 || loaded.NumEdges() != 12 {
		t.Fatalf("loaded %v", loaded)
	}
	if _, err := LoadGraphArg(filepath.Join(dir, "missing.txt")); !os.IsNotExist(err) {
		t.Fatalf("missing file error: %v", err)
	}
}
