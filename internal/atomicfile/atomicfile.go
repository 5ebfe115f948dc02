// Package atomicfile publishes files crash-safely. Every file that
// another process or a later run reads — checkpoint entries, result
// cache entries, graph snapshots, paperfigs artifacts, the daemon's
// address file — is written through Write: the content goes to a
// temp file beside the destination, and the temp file is renamed
// over the destination only once it is complete. A reader therefore
// sees the old file or the new one, never a torn one, and a process
// that still holds the old file (open, or memory-mapped as
// `mixtimed -mmap` holds its snapshots) keeps reading the old bytes:
// the rename replaces the name, not the inode.
//
// A process killed mid-write leaves only a temp file, whose name
// IsTemp recognises, so directory scanners skip or delete it. Write
// does not fsync: it guards against killed processes, not against
// power loss.
package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
)

// tempSuffix ends every temp name, so no reader that selects files by
// extension (.json, .mixg, .csv) mistakes a leftover for content.
const tempSuffix = ".tmp"

// Write publishes path with mode perm (applied as given, without the
// umask). fn writes the content into a fresh temp file in path's
// directory and must not close it. The temp file is renamed over path
// only after fn and Close succeed; on every failure (a panic in fn
// included) it is removed and path is left as it was.
func Write(path string, perm os.FileMode, fn func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*"+tempSuffix)
	if err != nil {
		return err
	}
	published := false
	defer func() {
		if !published {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := f.Chmod(perm); err != nil {
		return err
	}
	if err := fn(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	published = true
	return nil
}

// IsTemp reports whether name (a base name or a path) is a temp file
// that Write creates: a dot file ending in ".tmp".
func IsTemp(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, ".") && strings.HasSuffix(base, tempSuffix)
}
