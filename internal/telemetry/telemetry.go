// Package telemetry instruments the measurement kernels with cheap,
// concurrency-safe counters and scoped wall-time timers, making the
// quantities behind the paper's evaluation — walk steps propagated,
// CSR edges scanned, matvecs, Lanczos/power iterations, restarts —
// first-class observable values. Distributed mixing-time work
// measures cost in rounds and messages; the single-node analogues
// here are edges scanned and operator applications.
//
// The design contract, relied on by the kernel benchmarks:
//
//   - A nil *Collector is a valid collector: every method nil-checks
//     its receiver and returns immediately, so uninstrumented runs
//     pay one predictable branch per kernel call and zero
//     allocations (verified by TestStepNilCollectorNoAllocs and
//     BenchmarkStepCollector).
//   - Counter updates are single atomic adds issued at kernel-call
//     granularity (once per CSR pass, never per edge), so an
//     instrumented run does not change the floating-point work and
//     its experiment output stays byte-identical.
//   - A Collector is safe for concurrent use by the sharded and
//     blocked kernels; Snapshot may race with writers and then
//     reflects some interleaving of their updates, which is exact
//     once the instrumented call has returned.
//
// Lifecycle: construct with New, hand the collector to the layers to
// be observed (runner.Config.Collector, core.Options.Collector,
// markov.WithCollector, spectral.Options.Collector), read results
// with Snapshot, and aggregate child collectors into a parent with
// Merge. The runner gives each experiment its own child collector so
// per-experiment attribution survives parallel scheduling.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one monotonic event count.
type Counter int

// The counter taxonomy. Counts are cumulative over the collector's
// lifetime; see DESIGN.md §8 for which kernel increments which.
const (
	// EdgesScanned counts CSR adjacency entries read by propagation and
	// matvec kernels (one full pass adds 2m).
	EdgesScanned Counter = iota
	// Matvecs counts single-vector operator applications: markov Step
	// and spectral Apply / ApplyParallel.
	Matvecs
	// SpMMBlocks counts blocked (multi-source) propagation passes.
	SpMMBlocks
	// SourceSteps counts per-source walk steps propagated: a blocked
	// pass of width B advancing one step adds B.
	SourceSteps
	// WalkerMoves counts Monte-Carlo walker transitions (MCTrace).
	WalkerMoves
	// PowerIterations counts deflated power-iteration steps.
	PowerIterations
	// LanczosIterations counts Lanczos steps.
	LanczosIterations
	// Restarts counts solver restarts: a Lanczos run failing to
	// converge and falling back to power iteration.
	Restarts
	// TracesCompleted counts finished per-source TV traces.
	TracesCompleted

	// The distmix_* counters below are the communication accounting of
	// the simulated distributed estimator (internal/distmix): its cost
	// model is rounds and messages, the quantities a real deployment
	// would pay for, so they live beside the single-node kernel
	// counters for direct comparison.

	// DistRounds counts supersteps executed by the distmix engine.
	DistRounds
	// DistMessages counts every walker message delivered between
	// supersteps, on-shard and off-shard alike.
	DistMessages
	// DistOffShardMessages counts the subset of messages that crossed a
	// shard boundary — the traffic a real cluster would put on the wire.
	DistOffShardMessages
	// DistOnShardBytes is the accounted payload volume of on-shard
	// (local) messages.
	DistOnShardBytes
	// DistOffShardBytes is the accounted payload volume of off-shard
	// (cross-worker) messages.
	DistOffShardBytes

	// The service_* counters below are incremented by the mixtimed
	// query layer (internal/service), not by the kernels; they appear
	// in /stats snapshots beside the kernel counters the solves
	// accumulate.

	// ServiceRequests counts queries accepted by the unified endpoint.
	ServiceRequests
	// ServiceCacheHits counts queries answered from a completed cache
	// entry (no waiting on a solve).
	ServiceCacheHits
	// ServiceCacheMisses counts queries that spawned a new solve.
	ServiceCacheMisses
	// ServiceJoins counts queries deduplicated onto an in-flight
	// identical solve (singleflight).
	ServiceJoins
	// ServiceSolves counts spectral/sampling solves actually executed —
	// the counter the cache acceptance check watches: a repeated
	// identical query must leave it unchanged.
	ServiceSolves
	// ServiceErrors counts queries that ended in an error (validation,
	// solve failure, or cancellation).
	ServiceErrors
	// ServiceMutations counts accepted /v1/mutate requests — each one
	// bumps a mutable graph's version and invalidates its cached
	// results.
	ServiceMutations
	// ServiceEvictions counts completed cache entries dropped because
	// the graph they were computed on mutated underneath them.
	ServiceEvictions
	// ServiceShed counts requests rejected by admission control —
	// answered 429 because the solve wait-queue was full or the queue
	// wait expired — instead of piling onto the pool.
	ServiceShed
	// ServicePanics counts solves that panicked and were contained by
	// the per-solve recover barrier: each one is a 500 envelope to the
	// requester and nothing worse.
	ServicePanics
	// ServiceClientGone counts queries whose client disconnected while
	// the request was in flight — logged and counted, never reported as
	// a service error (there is nobody left to answer).
	ServiceClientGone
	// ServicePersistWrites counts completed results written through to
	// the on-disk cache (mixtimed -cache-dir).
	ServicePersistWrites
	// ServiceCacheLoaded counts completed results warm-loaded from the
	// on-disk cache at startup — answers that survived a restart.
	ServiceCacheLoaded

	// The evolve_* counters below are incremented by the evolving-graph
	// subsystem (internal/evolve): epoch rebuilds and the edge churn
	// that caused them.

	// EvolveEpochs counts mutation batches applied to mutable graphs
	// (each one is a CSR epoch rebuild and a version bump).
	EvolveEpochs
	// EvolveEdgesInserted counts edges actually added by mutation
	// batches (duplicates and self-loops excluded).
	EvolveEdgesInserted
	// EvolveEdgesDeleted counts edges actually removed by mutation
	// batches (absent edges excluded).
	EvolveEdgesDeleted
	// EvolveWarmStarts counts spectral solves seeded from a previous
	// epoch's eigenvector instead of a random unit vector.
	EvolveWarmStarts

	numCounters
)

// counterNames are the stable machine-readable counter keys used by
// Snapshot rendering and CSV/JSON emission.
var counterNames = [numCounters]string{
	"edges_scanned",
	"matvecs",
	"spmm_blocks",
	"source_steps",
	"walker_moves",
	"power_iterations",
	"lanczos_iterations",
	"restarts",
	"traces_completed",
	"distmix_rounds",
	"distmix_messages",
	"distmix_offshard_messages",
	"distmix_onshard_bytes",
	"distmix_offshard_bytes",
	"service_requests",
	"service_cache_hits",
	"service_cache_misses",
	"service_joins",
	"service_solves",
	"service_errors",
	"service_mutations",
	"service_evictions",
	"service_shed",
	"service_panics",
	"service_client_gone",
	"service_persist_writes",
	"service_cache_loaded",
	"evolve_epochs",
	"evolve_edges_inserted",
	"evolve_edges_deleted",
	"evolve_warm_starts",
}

// String returns the counter's stable snake_case key.
func (c Counter) String() string {
	if c < 0 || c >= numCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Gauge identifies one maximum-tracking observation.
type Gauge int

const (
	// ShardImbalanceMilli is the worst observed imbalance of a spectral
	// operator's shard plan, in thousandths: 1000·(max shard
	// adjacency)/(mean shard adjacency). 1000 is a perfectly balanced
	// plan.
	ShardImbalanceMilli Gauge = iota
	// MaxGraphAdjacency is the largest adjacency length (2m) of any
	// instrumented graph — context for reading the edge counters.
	MaxGraphAdjacency
	// MaxInflightRequests is the peak number of service queries being
	// answered at once — how close the daemon came to its pool bound.
	MaxInflightRequests
	// ServiceQueueDepth is the peak number of solves waiting in the
	// admission queue for a pool slot — how close the daemon came to
	// shedding load.
	ServiceQueueDepth

	numGauges
)

var gaugeNames = [numGauges]string{
	"shard_imbalance_milli",
	"max_graph_adjacency",
	"max_inflight_requests",
	"service_queue_depth",
}

// String returns the gauge's stable snake_case key.
func (g Gauge) String() string {
	if g < 0 || g >= numGauges {
		return "unknown"
	}
	return gaugeNames[g]
}

// Collector accumulates counters, gauges and timers. The zero value
// is ready to use; so is a nil pointer (every method is a no-op on
// nil), which is how uninstrumented hot paths stay at full speed. Safe
// for concurrent use.
type Collector struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64

	mu     sync.Mutex
	timers map[string]*stageTimer
}

type stageTimer struct {
	nanos int64
	count int64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add increments ctr by n. No-op on a nil collector — this is the
// zero-overhead fast path the kernels rely on.
func (c *Collector) Add(ctr Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[ctr].Add(n)
}

// ObserveMax raises gauge g to v if v exceeds the current value.
// No-op on a nil collector.
func (c *Collector) ObserveMax(g Gauge, v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.gauges[g].Load()
		if v <= cur || c.gauges[g].CompareAndSwap(cur, v) {
			return
		}
	}
}

// Timer starts a scoped wall-time measurement for the named stage and
// returns the function that stops it. Usage:
//
//	defer col.Timer("spectral")()
//
// Timers are for stage-granularity scopes (an SLEM estimation, a
// sampling pass), not per-edge work; on a nil collector the returned
// stop function is a shared no-op.
func (c *Collector) Timer(stage string) func() {
	if c == nil {
		return noopStop
	}
	start := time.Now()
	return func() { c.addTime(stage, time.Since(start)) }
}

var noopStop = func() {}

func (c *Collector) addTime(stage string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timers == nil {
		c.timers = map[string]*stageTimer{}
	}
	t := c.timers[stage]
	if t == nil {
		t = &stageTimer{}
		c.timers[stage] = t
	}
	t.nanos += int64(d)
	t.count++
}

// Count returns the current value of ctr (0 on a nil collector).
func (c *Collector) Count(ctr Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[ctr].Load()
}

// StageTime is the accumulated wall time of one named stage.
type StageTime struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
	Count int64  `json:"count"`
}

// Snapshot is a point-in-time copy of a collector's state, suitable
// for rendering, emission and merging. Counter and gauge fields are
// deterministic for a deterministic workload; Timers carry wall times
// and are not (they are excluded from byte-identity guarantees).
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	Timers   []StageTime      `json:"timers,omitempty"`
}

// Snapshot copies the collector's current state. On a nil collector
// it returns an empty (but usable) snapshot.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64, int(numCounters)),
		Gauges:   make(map[string]int64, int(numGauges)),
	}
	if c == nil {
		return s
	}
	for i := Counter(0); i < numCounters; i++ {
		if v := c.counters[i].Load(); v != 0 {
			s.Counters[i.String()] = v
		}
	}
	for i := Gauge(0); i < numGauges; i++ {
		if v := c.gauges[i].Load(); v != 0 {
			s.Gauges[i.String()] = v
		}
	}
	c.mu.Lock()
	for stage, t := range c.timers {
		s.Timers = append(s.Timers, StageTime{Stage: stage, Nanos: t.nanos, Count: t.count})
	}
	c.mu.Unlock()
	sort.Slice(s.Timers, func(i, j int) bool { return s.Timers[i].Stage < s.Timers[j].Stage })
	return s
}

// Merge folds a snapshot into the collector: counters and timers add,
// gauges take the maximum. This is how per-experiment child
// collectors aggregate into a run-wide parent. No-op on nil.
func (c *Collector) Merge(s Snapshot) {
	if c == nil {
		return
	}
	for i := Counter(0); i < numCounters; i++ {
		if v, ok := s.Counters[i.String()]; ok {
			c.counters[i].Add(v)
		}
	}
	for i := Gauge(0); i < numGauges; i++ {
		if v, ok := s.Gauges[i.String()]; ok {
			c.ObserveMax(i, v)
		}
	}
	for _, t := range s.Timers {
		c.addTime(t.Stage, time.Duration(t.Nanos))
	}
}

// Reset zeroes every counter, gauge and timer. No-op on nil.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	for i := range c.gauges {
		c.gauges[i].Store(0)
	}
	c.mu.Lock()
	c.timers = nil
	c.mu.Unlock()
}

// Get returns the named counter value from the snapshot (0 when the
// counter never fired).
func (s Snapshot) Get(ctr Counter) int64 { return s.Counters[ctr.String()] }

// GetGauge returns the named gauge value (0 when never observed).
func (s Snapshot) GetGauge(g Gauge) int64 { return s.Gauges[g.String()] }

// rows returns the snapshot as ordered (key, value) pairs: counters
// in taxonomy order, then gauges, then timers by stage name. The
// stable order is what makes Render and CSV deterministic.
func (s Snapshot) rows() [][2]string {
	var out [][2]string
	for i := Counter(0); i < numCounters; i++ {
		if v, ok := s.Counters[i.String()]; ok {
			out = append(out, [2]string{i.String(), fmt.Sprintf("%d", v)})
		}
	}
	for i := Gauge(0); i < numGauges; i++ {
		if v, ok := s.Gauges[i.String()]; ok {
			out = append(out, [2]string{i.String(), fmt.Sprintf("%d", v)})
		}
	}
	for _, t := range s.Timers {
		out = append(out, [2]string{"time_" + t.Stage + "_ms",
			fmt.Sprintf("%.1f", float64(t.Nanos)/1e6)})
	}
	return out
}

// Render formats the snapshot as an aligned two-column text table.
func (s Snapshot) Render() string {
	rows := s.rows()
	if len(rows) == 0 {
		return "(no telemetry recorded)\n"
	}
	width := 0
	for _, r := range rows {
		if len(r[0]) > width {
			width = len(r[0])
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r[0], r[1])
	}
	return b.String()
}

// CSV writes the snapshot as "metric,value" rows in the same stable
// order as Render.
func (s Snapshot) CSV(w io.Writer) error {
	if _, err := io.WriteString(w, "metric,value\n"); err != nil {
		return err
	}
	for _, r := range s.rows() {
		if _, err := fmt.Fprintf(w, "%s,%s\n", r[0], r[1]); err != nil {
			return err
		}
	}
	return nil
}

// JSON writes the snapshot as indented JSON. Round-trips through
// json.Unmarshal back into an equal Snapshot.
func (s Snapshot) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
