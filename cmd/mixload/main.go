// Command mixload drives load at a running mixtimed daemon and
// reports what came back: throughput, error count, and latency
// quantiles (p50/p99/p999) split by cache-hit vs cache-miss — the
// split that shows what the fingerprint cache is actually worth.
//
// Requests are built from one op template (-op, -graph, and the
// measurement knobs) with the seed cycling over -distinct values, so
// a run issues exactly -distinct distinct fingerprints: the first
// arrival of each is a miss (or a singleflight join while the solve
// is in flight), every repeat is a hit. `-distinct 1 -n 1000` is a
// pure cache benchmark; `-distinct 1000 -n 1000` is a pure solve
// benchmark.
//
// With -mutate-every N, every Nth request slot becomes a POST
// /v1/mutate that grows the target graph by -mutate-grow random edges
// — the live-graph workload: each mutation bumps the graph's version,
// evicts its cached results, and forces the next identical query to
// re-solve under a new fingerprint. The summary line reports applied
// mutations and total evictions.
//
// Usage:
//
//	mixload -addr 127.0.0.1:8642                      # 200 slem queries, 8 workers
//	mixload -addr $A -op cdf -graph dblp -n 500 -c 16
//	mixload -addr $A -op bounds -distinct 20 -n 400
//	mixload -addr $A -graph physics-1 -n 300 -mutate-every 50
//	mixload -addr $A -n 500 -c 32 -retries 8 -hedge 50ms
//
// With -retries the client re-issues shed (429) and transient
// failures under exponential backoff honoring Retry-After; with
// -hedge it duplicates slow queries and takes the first answer. The
// summary then reports shed/retried/hedged counts separately from
// hard errors: overload protection kicking in is not a failure.
//
// Exit status is non-zero if any request failed for good (after
// whatever retries were allowed) — a zero-hard-error burst is the e2e
// smoke criterion scripts/check.sh enforces.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/cliutil"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "", "daemon address (host:port or URL), required")
	op := flag.String("op", api.OpSLEM, "operation per request: slem, bounds, cdf, admission, distmix, experiment")
	graphName := flag.String("graph", "", "target graph name (default: first of the daemon's registry)")
	experiment := flag.String("experiment", "T1", "experiment ID for -op experiment")
	n := flag.Int("n", 200, "total requests")
	conc := flag.Int("c", 8, "concurrent workers")
	distinct := flag.Int("distinct", 1, "distinct seeds (= distinct fingerprints) to cycle through")
	sources := flag.Int("sources", api.DefaultSources, "sources knob sent with each request")
	maxWalk := flag.Int("maxwalk", api.DefaultMaxWalk, "max walk knob sent with each request")
	eps := flag.Float64("eps", api.DefaultEps, "ε knob for cdf requests")
	method := flag.String("method", api.MethodLanczos, "SLEM solver for slem/bounds requests")
	distShards := flag.Int("distshards", api.DefaultDistShards, "simulated shard count for distmix requests")
	distWalks := flag.Int("distwalks", api.DefaultDistWalks, "walkers per node for distmix requests")
	distRounds := flag.Int("distrounds", api.DefaultDistRounds, "superstep budget for distmix requests")
	mutateEvery := flag.Int("mutate-every", 0, "issue one POST /v1/mutate per this many queries (0 = never); the target graph must be served -mutable")
	mutateGrow := flag.Int("mutate-grow", 4, "random absent edges each mutation inserts (the grow knob of the mutate request)")
	retries := flag.Int("retries", 0, "max retries per request (0 = fail on first error); retries back off exponentially and honor Retry-After")
	hedge := flag.Duration("hedge", 0, "hedge delay: duplicate a query that has not answered within this long and take the first response (0 = off)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
	wait := flag.Duration("wait", 10*time.Second, "how long to wait for the daemon to become healthy")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mixload: -addr is required")
		return 2
	}
	if *n <= 0 || *conc <= 0 || *distinct <= 0 {
		fmt.Fprintln(os.Stderr, "mixload: -n, -c and -distinct must be positive")
		return 2
	}
	if *mutateEvery < 0 || *mutateGrow <= 0 {
		fmt.Fprintln(os.Stderr, "mixload: -mutate-every must be non-negative and -mutate-grow positive")
		return 2
	}
	if *mutateEvery > 0 && *op == api.OpExperiment {
		fmt.Fprintln(os.Stderr, "mixload: -mutate-every needs a graph op (experiments are not graph-addressed)")
		return 2
	}

	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()

	client := api.NewClient(*addr)
	client.MaxRetries = *retries
	client.HedgeDelay = *hedge
	waitCtx, cancel := context.WithTimeout(ctx, *wait)
	err := client.WaitReady(waitCtx)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixload:", err)
		return 1
	}
	target := *graphName
	if target == "" && *op != api.OpExperiment {
		gs, err := client.Graphs(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixload:", err)
			return 1
		}
		if len(gs.Graphs) == 0 {
			fmt.Fprintln(os.Stderr, "mixload: daemon serves no graphs")
			return 1
		}
		target = gs.Graphs[0].Name
	}

	template := api.Request{
		SchemaVersion: api.SchemaVersion,
		Op:            *op,
		Graph:         target,
		Params: api.Params{
			Sources:    *sources,
			MaxWalk:    *maxWalk,
			Eps:        *eps,
			Method:     *method,
			DistShards: *distShards,
			DistWalks:  *distWalks,
			DistRounds: *distRounds,
		},
	}
	if *op == api.OpExperiment {
		template.Graph = ""
		template.Experiment = *experiment
	}
	if err := template.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "mixload:", err)
		return 2
	}

	// Workers pull request indices from a shared counter; seed i%distinct
	// decides the fingerprint each index lands on.
	type sample struct {
		ns  int64
		hit bool
	}
	var (
		next      atomic.Int64
		errCount  atomic.Int64
		mutations atomic.Int64
		evicted   atomic.Int64
		mu        sync.Mutex
		samples   []sample
	)
	started := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*n) || ctx.Err() != nil {
					return
				}
				// Request index i becomes a mutation on every
				// -mutate-every'th slot (never the first, so the cache is
				// warm before the first eviction): live-graph churn
				// interleaved with the query load.
				if *mutateEvery > 0 && i > 0 && i%int64(*mutateEvery) == 0 {
					rctx, cancel := context.WithTimeout(ctx, *timeout)
					mres, err := client.Mutate(rctx, api.MutateRequest{
						Graph: target, Grow: *mutateGrow})
					cancel()
					if err != nil {
						errCount.Add(1)
						fmt.Fprintf(os.Stderr, "mixload: mutate %d: %v\n", i, err)
						continue
					}
					mutations.Add(1)
					evicted.Add(int64(mres.Evicted))
					continue
				}
				req := template
				req.Params.Seed = uint64(i % int64(*distinct))
				rctx, cancel := context.WithTimeout(ctx, *timeout)
				t0 := time.Now()
				resp, err := client.Query(rctx, req)
				elapsed := time.Since(t0)
				cancel()
				if err != nil {
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "mixload: request %d: %v\n", i, err)
					continue
				}
				mu.Lock()
				samples = append(samples, sample{ns: elapsed.Nanoseconds(), hit: resp.CacheHit})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(started)

	var hits, misses []float64
	for _, s := range samples {
		if s.hit {
			hits = append(hits, float64(s.ns))
		} else {
			misses = append(misses, float64(s.ns))
		}
	}
	fmt.Printf("mixload: %s op=%s graph=%s n=%d c=%d distinct=%d\n",
		*addr, *op, target, *n, *conc, *distinct)
	fmt.Printf("  done:        %d ok, %d errors in %.2fs (%.1f req/s)\n",
		len(samples), errCount.Load(), wall.Seconds(),
		float64(len(samples))/wall.Seconds())
	printBucket("cache-hit ", hits)
	printBucket("cache-miss", misses)
	if *mutateEvery > 0 {
		fmt.Printf("  mutations:   %d applied, %d cached results evicted\n",
			mutations.Load(), evicted.Load())
	}
	// Shed responses and retries are the daemon protecting itself, not
	// request failures: they are reported apart from the hard errors
	// that drive the exit status. A shed request that exhausts its
	// retries does land in the error count — dropping work silently is
	// exactly what this tool exists to catch.
	m := client.Metrics()
	if *retries > 0 || *hedge > 0 || m.Sheds > 0 {
		fmt.Printf("  resilience:  %d shed, %d retried, %d hedged (%d hedge wins)\n",
			m.Sheds, m.Retries, m.Hedges, m.HedgeWins)
	}

	if errCount.Load() > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

// printBucket reports one latency population's quantiles.
func printBucket(label string, ns []float64) {
	if len(ns) == 0 {
		fmt.Printf("  %s:  (none)\n", label)
		return
	}
	sort.Float64s(ns)
	q := func(p float64) time.Duration {
		idx := int(p * float64(len(ns)-1))
		return time.Duration(int64(ns[idx]))
	}
	fmt.Printf("  %s:  %d samples  p50=%v  p99=%v  p999=%v  max=%v\n",
		label, len(ns), q(0.50).Round(time.Microsecond), q(0.99).Round(time.Microsecond),
		q(0.999).Round(time.Microsecond), q(1).Round(time.Microsecond))
}
