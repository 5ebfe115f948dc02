package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/atomicfile"
)

// diskStore is the crash-safe persistence layer behind the result
// cache: one JSON file per completed fingerprint (mode 0600),
// published through atomicfile, so a kill mid-write leaves a miss,
// never a torn entry. It turns the in-memory cache into one that
// survives a SIGKILL: the daemon reloads every still-valid entry at
// startup and answers repeated queries without a single new solve.
type diskStore struct {
	dir string
}

// persistedEntry is the on-disk envelope around one cached response.
// GraphHash pins the graph identity the result was computed against,
// so reload can drop entries whose graph changed (or whose identity
// was version-stamped by a mutable graph — mutation epochs restart at
// zero after a reboot, making every stamped entry unreplayable).
type persistedEntry struct {
	SchemaVersion int           `json:"schema_version"`
	Fingerprint   string        `json:"fingerprint"`
	Tag           string        `json:"tag,omitempty"`
	GraphHash     string        `json:"graph_hash,omitempty"`
	SavedUnixNS   int64         `json:"saved_unix_ns"`
	Response      *api.Response `json:"response"`
}

// openDiskStore creates (if needed) and returns the store rooted at
// dir.
func openDiskStore(dir string) (*diskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	return &diskStore{dir: dir}, nil
}

func (s *diskStore) path(fp string) string {
	return filepath.Join(s.dir, fp+".json")
}

// save persists one completed response under its fingerprint,
// published through atomicfile so a crash mid-save cannot leave a
// half-written entry that load would trust.
func (s *diskStore) save(fp, tag, hash string, resp *api.Response) error {
	raw, err := json.Marshal(&persistedEntry{
		SchemaVersion: api.SchemaVersion,
		Fingerprint:   fp,
		Tag:           tag,
		GraphHash:     hash,
		SavedUnixNS:   time.Now().UnixNano(),
		Response:      resp,
	})
	if err == nil {
		err = atomicfile.Write(s.path(fp), 0o600, func(f *os.File) error {
			_, err := f.Write(raw)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("service: persist %s: %w", fp, err)
	}
	return nil
}

// remove deletes the persisted entry for fp, if any: the disk half of
// eviction.
func (s *diskStore) remove(fp string) {
	os.Remove(s.path(fp)) //nolint:errcheck // a missing file is already removed
}

// load reads every persisted entry, oldest first by save stamp,
// keeping only those keep approves. Rejected, torn, stale-schema and
// leftover temp files are deleted on the spot — the store never
// accumulates entries it would refuse again next boot.
func (s *diskStore) load(keep func(tag, hash string) bool) ([]*persistedEntry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	var out []*persistedEntry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		if !strings.HasSuffix(de.Name(), ".json") {
			// Leftover temp file from a crashed save (atomicfile).
			os.Remove(path)
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var pe persistedEntry
		if json.Unmarshal(raw, &pe) != nil ||
			pe.SchemaVersion != api.SchemaVersion ||
			pe.Response == nil ||
			pe.Fingerprint != strings.TrimSuffix(de.Name(), ".json") ||
			(keep != nil && !keep(pe.Tag, pe.GraphHash)) {
			os.Remove(path)
			continue
		}
		out = append(out, &pe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SavedUnixNS < out[j].SavedUnixNS })
	return out, nil
}
