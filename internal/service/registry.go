package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mixtime/internal/api"
	"mixtime/internal/atomicfile"
	"mixtime/internal/datasets"
	"mixtime/internal/evolve"
	"mixtime/internal/graph"
	"mixtime/internal/graphio"
	"mixtime/internal/telemetry"
)

// Entry is one graph the daemon serves queries against: the measured
// component (LCC — mixing time is undefined on disconnected graphs),
// its content hash, and where it came from.
type Entry struct {
	Name string
	// Graph is the largest connected component of the loaded graph.
	Graph *graph.Graph
	// Hash is the sha256 content identity of the component — the graph
	// part of every query fingerprint, so the cache key survives
	// daemon restarts and renames but never aliases distinct graphs.
	// Mutable entries stamp views with "<sha256>@v<version>" instead:
	// the registration hash plus the monotone mutation epoch is a
	// content identity too (versions are never reused), without an
	// O(m) rehash per mutation.
	Hash string
	// Origin records provenance: "file:<path>" or
	// "dataset:<name>:<scale>".
	Origin string

	// mut, when non-nil, makes this a live entry: queries resolve
	// through View to a frozen per-epoch snapshot and mutations land
	// via MakeMutable's wrapper. baseHash keeps the registration-time
	// content hash the version stamp decorates.
	mut      *evolve.MutableGraph
	baseHash string

	// viewMu guards the one-deep view cache: repeated queries against
	// an unchanged epoch reuse the same LCC extraction.
	viewMu  sync.Mutex
	viewVer evolve.Version
	view    *Entry
}

// Mutable returns the live graph behind the entry, or nil for the
// (default) immutable entries.
func (e *Entry) Mutable() *evolve.MutableGraph { return e.mut }

// View resolves the entry to the immutable snapshot queries must run
// against. For static entries that is the entry itself; for mutable
// ones it is a frozen per-epoch Entry whose Graph is the current
// epoch's largest component and whose Hash carries the version stamp —
// the rule that makes every cached result evict on mutation: a new
// epoch means a new hash, a new hash means a new fingerprint, and the
// old fingerprints' entries are evicted eagerly by the mutation
// handler. The view is cached one-deep per entry, so an unchanged
// epoch pays the LCC extraction once, not per query.
func (e *Entry) View() *Entry {
	if e.mut == nil {
		return e
	}
	g, ver := e.mut.Snapshot()
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if e.view != nil && e.viewVer == ver {
		return e.view
	}
	lcc, _ := graph.LargestComponent(g)
	e.view = &Entry{
		Name:   e.Name,
		Graph:  lcc,
		Hash:   fmt.Sprintf("%s@v%d", e.baseHash, ver),
		Origin: e.Origin,
	}
	e.viewVer = ver
	return e.view
}

// Info renders the entry for the /v1/graphs listing.
func (e *Entry) Info() api.GraphInfo {
	v := e.View()
	info := api.GraphInfo{
		Name:   v.Name,
		Nodes:  v.Graph.NumNodes(),
		Edges:  v.Graph.NumEdges(),
		Hash:   v.Hash,
		Origin: v.Origin,
	}
	if e.mut != nil {
		info.Mutable = true
		info.Version = uint64(e.mut.Version())
	}
	return info
}

// Registry maps names to served graphs. It is populated at daemon
// startup (snapshot dir + dataset references) and read-only
// afterwards; the lock only guards the population phase against
// concurrent tests.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// mapped holds the file mappings backing entries loaded with
	// LoadDirMapped; Close releases them, after which those entries'
	// graphs must not be touched.
	mapped []*graphio.MappedGraph
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*Entry{}}
}

// AddGraph registers g under name, extracting the largest component
// and hashing it. Duplicate names are rejected — a registry where
// "dblp" could mean two different graphs would poison every cached
// fingerprint downstream.
func (r *Registry) AddGraph(name, origin string, g *graph.Graph) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("service: empty graph name")
	}
	// A connected graph comes back as itself, so a memory-mapped one
	// stays file-backed.
	lcc, _ := graph.LargestComponent(g)
	if lcc.NumNodes() < 2 {
		return nil, fmt.Errorf("service: graph %q: largest component too small to measure", name)
	}
	e := &Entry{Name: name, Graph: lcc, Hash: hashGraph(lcc), Origin: origin}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return nil, fmt.Errorf("service: graph %q already registered", name)
	}
	r.entries[name] = e
	return e, nil
}

// AddDataset generates a Table-1 synthetic substitute at the given
// scale and seed and registers it under the dataset's name. A scale
// ≤ 0 means api.DefaultScale; NaN and ±Inf are errors.
func (r *Registry) AddDataset(name string, scale float64, seed uint64) (*Entry, error) {
	d, err := datasets.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("service: dataset %q: scale %v is not finite", name, scale)
	}
	if scale <= 0 {
		scale = api.DefaultScale
	}
	g := d.Generate(scale, seed)
	return r.AddGraph(name, fmt.Sprintf("dataset:%s:%v", name, scale), g)
}

// MakeMutable upgrades a registered entry to a live graph accepting
// POST /v1/mutate. The registered component becomes epoch 0; col (may
// be nil) receives the evolve_* churn counters. Like the rest of
// registry population this belongs to startup — call it before the
// entry serves queries.
func (r *Registry) MakeMutable(name string, col *telemetry.Collector) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown graph %q", name)
	}
	if e.mut == nil {
		e.baseHash = e.Hash
		e.mut = evolve.NewMutable(e.Graph)
		e.mut.SetCollector(col)
	}
	return e, nil
}

// LoadDir registers every loadable graph file in dir (MIXG snapshots
// and edge lists, ".gz" accepted) under its file stem. Subdirectories
// and the temp files of killed snapshot writes (atomicfile.IsTemp)
// are skipped; an unreadable file fails the load: a daemon that
// silently serves half its registry is worse than one that refuses
// to start.
func (r *Registry) LoadDir(dir string) (int, error) {
	return r.loadDir(dir, false)
}

// LoadDirMapped is LoadDir with uncompressed MIXG v2 snapshots
// memory-mapped instead of read into the heap: the kernel pages
// adjacency in on demand, so a directory of multi-gigabyte snapshots
// starts serving in seconds. Mappings whose graph actually enters the
// registry stay open until Close; inputs the mapping cannot serve
// (edge lists, gzip, v1) load heap-backed exactly as LoadDir would.
// Note the registration hash still touches every edge once, faulting
// the file through page cache — startup I/O is sequential reads, not
// avoided entirely.
func (r *Registry) LoadDirMapped(dir string) (int, error) {
	return r.loadDir(dir, true)
}

func (r *Registry) loadDir(dir string, mapped bool) (int, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("service: graphs dir: %w", err)
	}
	added := 0
	for _, de := range names {
		// A snapshot write killed mid-way leaves an atomicfile temp
		// file; it never names a graph.
		if de.IsDir() || atomicfile.IsTemp(de.Name()) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		var g *graph.Graph
		var mg *graphio.MappedGraph
		if mapped {
			mg, err = graphio.OpenMIXGMapped(path)
			if err == nil {
				g = mg.Graph
			}
		} else {
			g, err = graphio.LoadFile(path)
		}
		if err != nil {
			return added, fmt.Errorf("service: load %s: %w", path, err)
		}
		stem := de.Name()
		for _, ext := range []string{".gz", ".mixg", ".txt", ".edges"} {
			stem = strings.TrimSuffix(stem, ext)
		}
		e, err := r.AddGraph(stem, "file:"+path, g)
		if err != nil {
			if mg != nil {
				mg.Close()
			}
			return added, err
		}
		if mg != nil && mg.Mapped() && e.Graph == mg.Graph {
			// The mapping backs a served graph: keep it open.
			r.mu.Lock()
			r.mapped = append(r.mapped, mg)
			r.mu.Unlock()
		} else if mg != nil {
			// Heap fallback, or AddGraph extracted a component copy —
			// either way the file backing is no longer referenced.
			mg.Close()
		}
		added++
	}
	return added, nil
}

// Close releases any file mappings opened by LoadDirMapped. Graphs
// they backed become invalid; call only once serving has stopped.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, mg := range r.mapped {
		if err := mg.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.mapped = nil
	return first
}

// Get resolves a graph name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// List returns the registry in name order.
func (r *Registry) List() []api.GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]api.GraphInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hashGraph streams the component's node count and edge list into
// sha256. Two graphs share a hash iff they are the same labeled
// graph, which is exactly the identity the cache needs: the CSR
// arrays are a function of the edge set, so hashing edges (not the
// arrays) stays stable across storage-format changes.
func hashGraph(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.NumNodes()))
	h.Write(buf[:])
	g.Edges(func(u, v graph.NodeID) bool {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}
