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
// artifact. Each entry is one file, <dir>/<id>.json, published
// through atomicfile, so a kill mid-save leaves a miss, never a torn
// entry. It holds the fingerprint, the saved run's wall time, the
// three artifact streams (Render, CSV, JSON) as base64 bytes, so
// replay is byte-exact for any content, and the telemetry snapshot of
// an instrumented run.
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

	"mixtime/internal/atomicfile"
	"mixtime/internal/runner"
	"mixtime/internal/telemetry"
)

// fingerprintVersion is bumped whenever the fingerprint input or the
// entry layout changes, invalidating older checkpoint directories.
const fingerprintVersion = 3

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

// entry is the content of one checkpoint file. The artifact streams
// are []byte, which encoding/json stores as base64, so invalid UTF-8
// and the JSON stream's own formatting replay exactly.
type entry struct {
	Fingerprint string              `json:"fingerprint"`
	ElapsedNS   int64               `json:"elapsed_ns"`
	Render      []byte              `json:"render"`
	CSV         []byte              `json:"csv"`
	JSON        []byte              `json:"json"`
	Telemetry   *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Store is a file-backed runner.Checkpointer rooted at one run
// directory. Methods are safe for concurrent use by the runner's
// worker pool: distinct experiments write distinct files.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir. It
// removes the temp files that saves killed mid-write left behind
// (atomicfile.IsTemp). A checkpoint directory has one writer at a
// time — a second process opening it would delete the first one's
// saves in flight.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, de := range des {
		if atomicfile.IsTemp(de.Name()) {
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// cachedResult replays a persisted artifact byte-for-byte.
type cachedResult struct {
	render, csv, json []byte
}

func (c *cachedResult) Render() string { return string(c.render) }
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
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		return runner.CheckpointEntry{}, false
	}
	var e entry
	if json.Unmarshal(raw, &e) != nil || e.Fingerprint != Fingerprint(id, cfg) {
		return runner.CheckpointEntry{}, false
	}
	return runner.CheckpointEntry{
		Result:    &cachedResult{render: e.Render, csv: e.CSV, json: e.JSON},
		Elapsed:   time.Duration(e.ElapsedNS),
		Telemetry: e.Telemetry,
	}, true
}

// Save persists rep's artifact under id as one file, published
// through atomicfile.
func (s *Store) Save(id string, cfg runner.Config, rep *runner.ExperimentReport) error {
	if rep == nil || rep.Result == nil {
		return fmt.Errorf("checkpoint: %s: no result to save", id)
	}
	var csv, jsn bytes.Buffer
	if err := rep.Result.CSV(&csv); err != nil {
		return fmt.Errorf("checkpoint: %s: csv: %w", id, err)
	}
	if err := rep.Result.JSON(&jsn); err != nil {
		return fmt.Errorf("checkpoint: %s: json: %w", id, err)
	}
	raw, err := json.Marshal(&entry{
		Fingerprint: Fingerprint(id, cfg),
		ElapsedNS:   int64(rep.Elapsed),
		Render:      []byte(rep.Result.Render()),
		CSV:         csv.Bytes(),
		JSON:        jsn.Bytes(),
		Telemetry:   rep.Telemetry,
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", id, err)
	}
	err = atomicfile.Write(s.path(id), 0o644, func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %s: %w", id, err)
	}
	return nil
}

// Compile-time check: the Store satisfies the runner's hook.
var _ runner.Checkpointer = (*Store)(nil)
