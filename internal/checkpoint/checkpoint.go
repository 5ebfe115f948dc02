// Package checkpoint persists each completed experiment's rendered
// artifact, raw CSV/JSON rows and telemetry to a run directory, so a
// killed multi-hour evaluation restarts where it died instead of
// from scratch. The Store implements runner.Checkpointer: the runner
// saves after every success and, on resume, replays matching prior
// results byte-for-byte.
//
// Entries are keyed by experiment ID and guarded by a fingerprint of
// every Config knob that selects the run (seed, scale, sources, walk
// cap, spectral tolerance, block size): a resume under a different
// configuration misses and re-runs rather than replaying a stale
// artifact. Saves are crash-safe — the entry is assembled in a
// temp directory and renamed into place, so a kill mid-save leaves a
// miss, never a torn entry.
//
// Layout under the run directory:
//
//	<dir>/<id>/meta.json        fingerprint, names, wall time (commit marker)
//	<dir>/<id>/render.txt       Result.Render output
//	<dir>/<id>/rows.csv         Result.CSV output
//	<dir>/<id>/rows.json        Result.JSON output
//	<dir>/<id>/telemetry.json   telemetry snapshot (instrumented runs only)
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// fingerprintVersion is bumped whenever the fingerprint input or the
// entry layout changes, invalidating older checkpoint directories.
const fingerprintVersion = 2

// Fingerprint canonically hashes the configuration knobs an
// experiment's output (and cost envelope) depends on, plus the
// experiment ID. The block size stays in: it changes the replayed
// telemetry's edges_scanned. Workers and the fault-tolerance knobs
// (retries, backoff, timeout) are deliberately excluded: they change
// neither a successful result nor its telemetry, so a resume with a
// different -workers or with retries on replays prior checkpoints.
func Fingerprint(id string, cfg runner.Config) string {
	cfg = cfg.WithDefaults()
	canon := fmt.Sprintf("v%d|%s|scale=%v|seed=%d|sources=%d|maxwalk=%d|tol=%v|block=%d",
		fingerprintVersion, id, cfg.Scale, cfg.Seed, cfg.Sources, cfg.MaxWalk,
		cfg.SpectralTol, cfg.BlockSize)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:])
}

// meta is the per-entry commit record. Entries become visible only
// via the atomic temp-dir rename in Save, so a readable meta.json
// certifies the artifact files beside it are complete.
type meta struct {
	Fingerprint string `json:"fingerprint"`
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Title       string `json:"title,omitempty"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	Telemetry   bool   `json:"telemetry"`
}

// Store is a file-backed runner.Checkpointer rooted at one run
// directory. Methods are safe for concurrent use by the runner's
// worker pool: distinct experiments write distinct subdirectories.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// cachedResult replays a persisted artifact byte-for-byte.
type cachedResult struct {
	render    string
	csv, json []byte
}

func (c *cachedResult) Render() string { return c.render }
func (c *cachedResult) CSV(w io.Writer) error {
	_, err := w.Write(c.csv)
	return err
}
func (c *cachedResult) JSON(w io.Writer) error {
	_, err := w.Write(c.json)
	return err
}

// Lookup returns the replayable entry for id under cfg, or false on
// any miss: no entry, fingerprint mismatch, or a torn/unreadable
// entry (which resume treats as "re-run", never as an error).
func (s *Store) Lookup(id string, cfg runner.Config) (runner.CheckpointEntry, bool) {
	dir := filepath.Join(s.dir, id)
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return runner.CheckpointEntry{}, false
	}
	var m meta
	if json.Unmarshal(raw, &m) != nil || m.Fingerprint != Fingerprint(id, cfg) {
		return runner.CheckpointEntry{}, false
	}
	render, err1 := os.ReadFile(filepath.Join(dir, "render.txt"))
	csv, err2 := os.ReadFile(filepath.Join(dir, "rows.csv"))
	jsn, err3 := os.ReadFile(filepath.Join(dir, "rows.json"))
	if err1 != nil || err2 != nil || err3 != nil {
		return runner.CheckpointEntry{}, false
	}
	entry := runner.CheckpointEntry{
		Result:  &cachedResult{render: string(render), csv: csv, json: jsn},
		Elapsed: time.Duration(m.ElapsedNS),
	}
	if m.Telemetry {
		traw, err := os.ReadFile(filepath.Join(dir, "telemetry.json"))
		if err != nil {
			return runner.CheckpointEntry{}, false
		}
		var snap telemetry.Snapshot
		if json.Unmarshal(traw, &snap) != nil {
			return runner.CheckpointEntry{}, false
		}
		entry.Telemetry = &snap
	}
	return entry, true
}

// Save persists rep's artifact under id. The entry is assembled in a
// sibling temp directory and renamed into place so a crash mid-save
// cannot leave a half-written entry behind a valid meta.json.
func (s *Store) Save(id string, cfg runner.Config, rep *runner.ExperimentReport) error {
	if rep == nil || rep.Result == nil {
		return fmt.Errorf("checkpoint: %s: no result to save", id)
	}
	tmp, err := os.MkdirTemp(s.dir, id+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	var csv, jsn bytes.Buffer
	if err := rep.Result.CSV(&csv); err != nil {
		return fmt.Errorf("checkpoint: %s: csv: %w", id, err)
	}
	if err := rep.Result.JSON(&jsn); err != nil {
		return fmt.Errorf("checkpoint: %s: json: %w", id, err)
	}
	files := map[string][]byte{
		"render.txt": []byte(rep.Result.Render()),
		"rows.csv":   csv.Bytes(),
		"rows.json":  jsn.Bytes(),
	}
	if rep.Telemetry != nil {
		traw, err := json.Marshal(rep.Telemetry)
		if err != nil {
			return fmt.Errorf("checkpoint: %s: telemetry: %w", id, err)
		}
		files["telemetry.json"] = traw
	}
	m := meta{
		Fingerprint: Fingerprint(id, cfg),
		ID:          id,
		Name:        rep.Name,
		Title:       rep.Title,
		ElapsedNS:   int64(rep.Elapsed),
		Telemetry:   rep.Telemetry != nil,
	}
	mraw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %s: meta: %w", id, err)
	}
	files["meta.json"] = mraw
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			return fmt.Errorf("checkpoint: %s: %w", id, err)
		}
	}
	final := filepath.Join(s.dir, id)
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", id, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("checkpoint: %s: %w", id, err)
	}
	return nil
}

// Compile-time check: the Store satisfies the runner's hook.
var _ runner.Checkpointer = (*Store)(nil)
