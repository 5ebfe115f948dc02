package service

import (
	"context"
	"log"
	"sync"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/telemetry"
)

// Outcomes of a cache lookup, mirrored into the service_* telemetry
// counters.
const (
	outcomeHit  = "hit"  // completed entry, answered in O(lookup)
	outcomeJoin = "join" // deduplicated onto an in-flight identical solve
	outcomeMiss = "miss" // spawned the solve
)

// cache is the fingerprint-keyed result cache with singleflight
// dedup: N concurrent identical queries trigger one solve, completed
// results replay from memory, and errors are never cached.
//
// The solve runs detached from any single requester — its context
// descends from the server lifecycle, not from the request that
// happened to arrive first — so one waiter cancelling (or timing out)
// never poisons the result the others are waiting for. Waiters are
// refcounted: when the last one abandons an in-flight solve, the
// solve itself is cancelled and the entry forgotten, so nobody pays
// for work nobody wants.
//
// With a diskStore attached, completed results are also written
// through to disk and reloaded at the next startup (warmLoad), so the
// cache survives a crash: eviction — FIFO or mutation-triggered —
// removes the persisted file along with the memory entry.
type cache struct {
	base    context.Context // server lifecycle: solves die with the daemon
	timeout time.Duration   // per-solve cap (0 = none)
	col     *telemetry.Collector
	max     int // completed entries kept; oldest evicted first

	store *diskStore // optional write-through persistence (nil = memory only)

	mu      sync.Mutex
	entries map[string]*entry
	order   []string // completed fingerprints, oldest first
	// writes counts committed solves whose store work (write-through,
	// eviction removals) has not finished; stored broadcasts on mu
	// when it drops to zero. Both are guarded by mu.
	writes int
	stored *sync.Cond
}

// entry is one fingerprint's slot: in flight until done closes,
// completed (and cacheable) afterwards iff err is nil.
type entry struct {
	fp      string
	tag     string // graph name for targeted eviction ("" = untagged)
	hash    string // graph content identity for persistence validation
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by cache.mu; meaningful only in flight
	resp    *api.Response
	err     error
}

func newCache(base context.Context, timeout time.Duration, max int, col *telemetry.Collector) *cache {
	if max <= 0 {
		max = 4096
	}
	c := &cache{
		base:    base,
		timeout: timeout,
		col:     col,
		max:     max,
		entries: map[string]*entry{},
	}
	c.stored = sync.NewCond(&c.mu)
	return c
}

// attachStore enables write-through persistence. Call before the
// cache serves requests (it is a construction-time decision).
func (c *cache) attachStore(s *diskStore) { c.store = s }

// warmLoad populates the cache from the attached store: every
// persisted entry keep approves becomes a completed in-memory entry,
// oldest first so FIFO eviction order survives the restart. Entries
// beyond the cache bound are dropped from disk rather than loaded.
// Returns the number of entries loaded.
func (c *cache) warmLoad(keep func(tag, hash string) bool) (int, error) {
	if c.store == nil {
		return 0, nil
	}
	list, err := c.store.load(keep)
	if err != nil {
		return 0, err
	}
	if len(list) > c.max {
		for _, pe := range list[:len(list)-c.max] {
			c.store.remove(pe.Fingerprint)
		}
		list = list[len(list)-c.max:]
	}
	done := make(chan struct{})
	close(done)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, pe := range list {
		if _, exists := c.entries[pe.Fingerprint]; exists {
			continue
		}
		c.entries[pe.Fingerprint] = &entry{
			fp:     pe.Fingerprint,
			tag:    pe.Tag,
			hash:   pe.GraphHash,
			done:   done,
			cancel: func() {},
			resp:   pe.Response,
		}
		c.order = append(c.order, pe.Fingerprint)
		n++
	}
	return n, nil
}

// len returns the number of live entries (completed + in flight).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// do answers fingerprint fp: from the completed cache, by joining an
// in-flight identical solve, or by spawning solve. The returned
// outcome says which. ctx governs only this caller's wait; the solve
// owns its own lifecycle. tag names the graph the result depends on
// ("" for graph-independent queries) — evictTag invalidates by it —
// and hash is the graph's content identity, recorded so persisted
// entries can be validated against the registry on reload.
func (c *cache) do(ctx context.Context, fp, tag, hash string, solve func(context.Context) (*api.Response, error)) (*api.Response, string, error) {
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok {
		select {
		case <-e.done:
			// Completed. Errors are never left in the map, so this is a
			// replayable success.
			c.mu.Unlock()
			c.col.Add(telemetry.ServiceCacheHits, 1)
			return e.resp, outcomeHit, nil
		default:
			e.waiters++
			c.mu.Unlock()
			c.col.Add(telemetry.ServiceJoins, 1)
			resp, err := c.wait(ctx, e)
			return resp, outcomeJoin, err
		}
	}
	sctx, cancel := context.WithCancel(c.base)
	if c.timeout > 0 {
		sctx, cancel = context.WithTimeout(c.base, c.timeout)
	}
	e := &entry{fp: fp, tag: tag, hash: hash, done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.entries[fp] = e
	c.mu.Unlock()
	c.col.Add(telemetry.ServiceCacheMisses, 1)
	c.col.Add(telemetry.ServiceSolves, 1)
	go c.run(sctx, e, solve)
	resp, err := c.wait(ctx, e)
	return resp, outcomeMiss, err
}

// run executes the solve and commits the outcome: successes stay
// cached (with FIFO eviction, write-through to the store when one is
// attached), failures free the slot so the next identical request
// retries. The store work runs after the waiters are released, so it
// is counted in writes before done closes: a request answered from
// this entry cannot finish before flush knows to wait for its file.
func (c *cache) run(sctx context.Context, e *entry, solve func(context.Context) (*api.Response, error)) {
	resp, err := solve(sctx)
	e.cancel()
	var evicted []string
	owned := false
	c.mu.Lock()
	e.resp, e.err = resp, err
	if c.store != nil {
		c.writes++
	}
	close(e.done)
	if err != nil {
		// Only forget the entry if it is still ours: a failed solve may
		// linger past its eviction or replacement.
		if c.entries[e.fp] == e {
			delete(c.entries, e.fp)
		}
	} else {
		owned = c.entries[e.fp] == e
		c.order = append(c.order, e.fp)
		for len(c.order) > c.max {
			old := c.order[0]
			c.order = c.order[1:]
			if oe, ok := c.entries[old]; ok && oe != e {
				delete(c.entries, old)
				evicted = append(evicted, old)
			}
		}
	}
	c.mu.Unlock()
	if c.store == nil {
		return
	}
	defer c.storeDone()
	for _, fp := range evicted {
		c.store.remove(fp)
	}
	// Persist only results still in the map: a concurrent mutation may
	// have evicted the entry between commit and here, and re-creating
	// its file would resurrect a superseded answer. (Stamped mutable
	// entries are additionally dropped wholesale on reload.)
	if err == nil && owned {
		if perr := c.store.save(e.fp, e.tag, e.hash, resp); perr != nil {
			log.Printf("service: write-through failed: %v", perr)
		} else {
			c.col.Add(telemetry.ServicePersistWrites, 1)
		}
	}
}

// storeDone retires one solve's store work and wakes flush when none
// is left.
func (c *cache) storeDone() {
	c.mu.Lock()
	c.writes--
	if c.writes == 0 {
		c.stored.Broadcast()
	}
	c.mu.Unlock()
}

// flush blocks until the store work of every solve committed so far
// has finished, so each result already handed to a requester is on
// disk. Solves still running are not waited for.
func (c *cache) flush() {
	c.mu.Lock()
	for c.writes > 0 {
		c.stored.Wait()
	}
	c.mu.Unlock()
}

// evictTag removes every completed entry tagged with the graph name —
// the cache half of the mutation rule: a bumped version changes the
// fingerprint of all future queries, and evictTag reclaims the memory
// the unreachable old-version results occupy (and their persisted
// files, when a store is attached). In-flight solves are left to
// finish (their results are keyed by the old fingerprint, so no
// post-mutation query can ever receive them); whatever they cache is
// swept by the next eviction or FIFO pressure. Returns the number of
// entries evicted.
func (c *cache) evictTag(tag string) int {
	if tag == "" {
		return 0
	}
	var evicted []string
	c.mu.Lock()
	for fp, e := range c.entries {
		if e.tag != tag {
			continue
		}
		select {
		case <-e.done:
			if e.err == nil {
				delete(c.entries, fp)
				evicted = append(evicted, fp)
			}
		default: // in flight: leave it to complete against its old key
		}
	}
	n := len(evicted)
	if n > 0 {
		keep := c.order[:0]
		for _, fp := range c.order {
			if _, ok := c.entries[fp]; ok {
				keep = append(keep, fp)
			}
		}
		c.order = keep
		c.col.Add(telemetry.ServiceEvictions, int64(n))
	}
	c.mu.Unlock()
	if c.store != nil {
		for _, fp := range evicted {
			c.store.remove(fp)
		}
	}
	return n
}

// wait blocks until the entry completes or the caller's ctx dies. A
// dying waiter decrements the refcount; the last one out cancels the
// solve and forgets the entry.
func (c *cache) wait(ctx context.Context, e *entry) (*api.Response, error) {
	select {
	case <-e.done:
		return e.resp, e.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	select {
	case <-e.done:
		// Completed while we were giving up — take the result after all.
		c.mu.Unlock()
		return e.resp, e.err
	default:
	}
	e.waiters--
	if e.waiters <= 0 {
		e.cancel()
		if c.entries[e.fp] == e {
			delete(c.entries, e.fp)
		}
	}
	c.mu.Unlock()
	return nil, ctx.Err()
}
