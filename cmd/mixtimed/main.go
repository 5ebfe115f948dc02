// Command mixtimed is the mixing-time service daemon: it loads a
// graph registry once and answers measurement queries over HTTP until
// told to stop.
//
// The registry is populated from -graphs (a directory of MIXG
// snapshots or edge lists, ".gz" ok, one graph per file keyed by file
// stem) and -datasets (comma-separated Table-1 dataset names, or
// "all", generated at -scale with -seed). The wire contract is
// internal/api; the endpoints are:
//
//	POST /v1/query   — slem | bounds | cdf | admission | distmix | experiment
//	POST /v1/mutate  — edge insert/delete/grow batches on -mutable graphs
//	GET  /v1/graphs  — the registry listing
//	GET  /healthz    — 200 while serving, 503 while draining
//	GET  /stats      — service counters, kernel telemetry, pool/cache occupancy
//
// Results are cached by the sha256 fingerprint of (graph content
// hash, output-determining parameters): concurrent identical queries
// collapse onto one solve, and repeats replay from memory — watch
// service_solves in /stats stay flat while service_cache_hits climbs.
//
// Graphs named in -mutable are served live: POST /v1/mutate applies an
// atomic edge batch, bumps the graph's mutation epoch, and evicts every
// cached result computed against older epochs (fingerprints embed the
// version-stamped content hash, so stale answers cannot survive a
// mutation). Watch service_mutations and service_evictions in /stats.
//
// The first SIGINT/SIGTERM shuts down gracefully: the listener
// closes, new queries are rejected with 503, in-flight ones run to
// completion (up to -grace), and only then do outstanding solves get
// cancelled. A second signal hard-exits (see cliutil.SignalContext).
//
// Usage:
//
//	mixtimed -datasets all -scale 0.01
//	mixtimed -graphs snapshots/ -addr :8642
//	mixtimed -datasets physics-1,dblp -addr 127.0.0.1:0 -addr-file addr.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/atomicfile"
	"mixtime/internal/cliutil"
	"mixtime/internal/datasets"
	"mixtime/internal/faults"
	"mixtime/internal/service"
	"mixtime/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8642", "listen address (host:0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	graphsDir := flag.String("graphs", "", "directory of graph snapshots to serve (MIXG or edge lists)")
	mmapGraphs := flag.Bool("mmap", false, "memory-map uncompressed MIXG v2 snapshots in -graphs instead of loading them into RAM (other formats fall back)")
	dataset := flag.String("datasets", "", `comma-separated Table-1 dataset names to generate and serve ("all" for every one)`)
	scale := flag.Float64("scale", api.DefaultScale, "scale factor for generated datasets")
	seed := flag.Uint64("seed", api.DefaultSeed, "seed for generated datasets")
	mutable := flag.String("mutable", "", `comma-separated registered graph names to serve as live, mutable graphs accepting POST /v1/mutate ("all" for every one)`)
	pool := flag.Int("pool", 0, "max concurrent solves (0 = GOMAXPROCS); hits and joins bypass the pool")
	maxQueue := flag.Int("max-queue", 0, "max solves waiting for a pool slot before overflow is shed with 429 (0 = 8x pool, negative = no queue)")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "max time a queued solve waits for a pool slot before being shed (0 = 1s)")
	cacheMax := flag.Int("cache-max", 0, "completed results kept before FIFO eviction (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persist completed results here (write-through) and warm-load them on startup")
	solveTimeout := flag.Duration("solve-timeout", 0, "hard cap on any single solve (0 = none)")
	inject := flag.String("inject", "", `arm deterministic fault injection, e.g. "seed=7,panic=1:4,latency=40ms" (see internal/faults)`)
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight requests")
	flag.Parse()

	reg := service.NewRegistry()
	defer reg.Close()
	if *graphsDir != "" {
		load, how := reg.LoadDir, "loaded"
		if *mmapGraphs {
			load, how = reg.LoadDirMapped, "mapped"
		}
		n, err := load(*graphsDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixtimed:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "mixtimed: %s %d graph(s) from %s\n", how, n, *graphsDir)
	}
	if *dataset != "" {
		names := strings.Split(*dataset, ",")
		if strings.TrimSpace(*dataset) == "all" {
			names = datasets.Names()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			e, err := reg.AddDataset(name, *scale, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mixtimed:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "mixtimed: generated %s (%d nodes, %d edges)\n",
				e.Name, e.Graph.NumNodes(), e.Graph.NumEdges())
		}
	}
	if reg.Len() == 0 {
		fmt.Fprintln(os.Stderr, "mixtimed: empty registry (pass -graphs DIR and/or -datasets NAMES; try -datasets all)")
		return 2
	}

	col := telemetry.New()
	if *mutable != "" {
		names := strings.Split(*mutable, ",")
		if strings.TrimSpace(*mutable) == "all" {
			names = names[:0]
			for _, gi := range reg.List() {
				names = append(names, gi.Name)
			}
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := reg.MakeMutable(name, col); err != nil {
				fmt.Fprintln(os.Stderr, "mixtimed:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "mixtimed: serving %s as a mutable graph\n", name)
		}
	}

	// Two lifetimes: the signal context ends admission, the base
	// context ends solves. They are separate so that draining requests
	// keep their solves alive after the first signal.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	base, cancelSolves := context.WithCancel(context.Background())
	defer cancelSolves()

	var injector *faults.Injector
	if *inject != "" {
		in, err := faults.Parse(*inject)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixtimed:", err)
			return 2
		}
		injector = in
		fmt.Fprintf(os.Stderr, "mixtimed: fault injection armed (%s)\n", injector)
	}

	srv, err := service.New(base, reg, service.Config{
		PoolSize:     *pool,
		MaxQueue:     *maxQueue,
		MaxQueueWait: *maxQueueWait,
		CacheMax:     *cacheMax,
		CacheDir:     *cacheDir,
		SolveTimeout: *solveTimeout,
		Injector:     injector,
		Collector:    col,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtimed:", err)
		return 1
	}
	if *cacheDir != "" {
		if n := col.Snapshot().Counters["service_cache_loaded"]; n > 0 {
			fmt.Fprintf(os.Stderr, "mixtimed: warm-loaded %d cached result(s) from %s\n", n, *cacheDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixtimed:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Published whole, so a poller never reads a partial address.
		err := atomicfile.Write(*addrFile, 0o644, func(f *os.File) error {
			_, err := f.WriteString(bound + "\n")
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixtimed:", err)
			return 1
		}
	}
	fmt.Printf("mixtimed: serving %d graph(s) on http://%s\n", reg.Len(), bound)

	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "mixtimed: shutting down (draining in-flight requests)")
		drained := make(chan struct{})
		go func() {
			srv.Drain()
			close(drained)
		}()
		shCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		httpSrv.Shutdown(shCtx) //nolint:errcheck // grace expiry handled below
		select {
		case <-drained:
		case <-shCtx.Done():
			fmt.Fprintln(os.Stderr, "mixtimed: grace period expired, cancelling solves")
		}
		cancelSolves()
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "mixtimed:", err)
		return 1
	}
	// Serve returned because Shutdown ran; wait for the drain path to
	// finish cancelling solves before exiting.
	<-base.Done()
	fmt.Fprintln(os.Stderr, "mixtimed: bye")
	return 0
}
