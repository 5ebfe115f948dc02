package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeString publishes s at path through Write.
func writeString(path string, perm os.FileMode, s string) error {
	return Write(path, perm, func(f *os.File) error {
		_, err := f.WriteString(s)
		return err
	})
}

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	return out
}

// TestWritePublishesWithMode: a published file holds the callback's
// bytes under exactly the requested mode — 0644 for snapshots,
// artifacts and checkpoint entries, 0600 for cache entries, whatever
// os.CreateTemp gave the temp file — and no temp file stays behind.
func TestWritePublishesWithMode(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o600} {
		path := filepath.Join(dir, "out.json")
		if err := writeString(path, perm, "v"+perm.String()); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "v"+perm.String() {
			t.Fatalf("perm %v: content %q, %v", perm, got, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode().Perm() != perm {
			t.Errorf("mode = %v, want %v", st.Mode().Perm(), perm)
		}
		if n := names(t, dir); len(n) != 1 {
			t.Errorf("directory holds %v, want only out.json", n)
		}
	}
}

// TestFailedWriteKeepsDestination: a callback that fails (or panics)
// after writing leaves the previous destination byte-identical and no
// temp file behind.
func TestFailedWriteKeepsDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.mixg")
	if err := writeString(path, 0o644, "old bytes"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, 0o644, func(f *os.File) error {
		if _, err := f.WriteString("torn"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write err = %v, want the callback's", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("callback panic was swallowed")
			}
		}()
		Write(path, 0o644, func(f *os.File) error {
			f.WriteString("torn")
			panic("boom")
		})
	}()
	if got, err := os.ReadFile(path); err != nil || string(got) != "old bytes" {
		t.Fatalf("destination after failed writes = %q, %v; want the old bytes", got, err)
	}
	if n := names(t, dir); len(n) != 1 || n[0] != "snap.mixg" {
		t.Errorf("directory holds %v, want only snap.mixg", n)
	}
	if err := writeString(filepath.Join(dir, "missing", "x"), 0o644, "x"); err == nil {
		t.Error("Write into a missing directory succeeded")
	}
}

// TestIsTemp: the names Write gives its temp files are recognised, and
// no destination name is.
func TestIsTemp(t *testing.T) {
	dir := t.TempDir()
	var seen string
	err := Write(filepath.Join(dir, "T1.json"), 0o644, func(f *os.File) error {
		seen = f.Name()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !IsTemp(seen) || !IsTemp(filepath.Base(seen)) {
		t.Errorf("IsTemp(%q) = false", seen)
	}
	for _, name := range []string{"T1.json", "physics-1.mixg", "g.mixg.gz", ".hidden", "x.tmp", "addr"} {
		if IsTemp(name) {
			t.Errorf("IsTemp(%q) = true", name)
		}
	}
}
