package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mixtime/internal/api"
)

// FuzzWarmLoad holds the persisted cache's warm load to its contract
// on arbitrary file contents: load never panics, serves only entries
// whose schema version, response and fingerprint check out, and
// deletes every file it does not serve (torn, garbled, stale and
// leftover temp files alike), so nothing it refused is read again at
// the next boot. `go test -run=Fuzz` runs the seed corpus (wired into
// scripts/check.sh); `go test -fuzz=FuzzWarmLoad ./internal/service`
// explores further.
func FuzzWarmLoad(f *testing.F) {
	const fp = "5e1f0c2a9d"
	entry := func(edit func(*persistedEntry)) []byte {
		pe := persistedEntry{
			SchemaVersion: api.SchemaVersion,
			Fingerprint:   fp,
			Tag:           "physics-1",
			GraphHash:     "9b1d",
			SavedUnixNS:   1,
			Response: &api.Response{SchemaVersion: api.SchemaVersion, Op: api.OpSLEM,
				SLEM: &api.SLEMResult{Mu: 0.97, Lambda2: 0.97}},
		}
		if edit != nil {
			edit(&pe)
		}
		raw, err := json.Marshal(&pe)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := entry(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entry(func(pe *persistedEntry) { pe.SchemaVersion = api.SchemaVersion + 1 }))
	f.Add(entry(func(pe *persistedEntry) { pe.Fingerprint = "0000000000" }))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fp+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ".tmp-x"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := s.load(nil)
		if err != nil {
			t.Fatal(err)
		}
		served := map[string]bool{}
		for _, pe := range entries {
			if pe.SchemaVersion != api.SchemaVersion || pe.Response == nil || pe.Fingerprint != fp {
				t.Fatalf("load served an entry it must refuse: %+v", pe)
			}
			served[pe.Fingerprint+".json"] = true
		}
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if !served[de.Name()] {
				t.Errorf("load left %s on disk without serving it", de.Name())
			}
		}
	})
}

// TestSaveWritesPrivateEntry: a cache entry is published under mode
// 0600 (responses stay private to the daemon's user, as they were when
// os.CreateTemp made them), leaves no temp file, and loads back.
func TestSaveWritesPrivateEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := openDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "5e1f0c2a9d"
	resp := &api.Response{SchemaVersion: api.SchemaVersion, Op: api.OpSLEM, SLEM: &api.SLEMResult{Mu: 0.97}}
	if err := s.save(fp, "physics-1", "9b1d", resp); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != fp+".json" {
		t.Fatalf("cache dir holds %v, want only %s.json", des, fp)
	}
	st, err := os.Stat(s.path(fp))
	if err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("entry %v, %v; want mode 0600", st.Mode().Perm(), err)
	}
	entries, err := s.load(nil)
	if err != nil || len(entries) != 1 || entries[0].Response.SLEM.Mu != 0.97 {
		t.Fatalf("load = %v, %v; want the saved entry", entries, err)
	}
}
