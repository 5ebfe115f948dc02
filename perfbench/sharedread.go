package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/evolve"
	"mixtime/internal/graph"
	"mixtime/internal/service"
	"mixtime/internal/telemetry"
)

// shared-read's load: an open loop below saturation plus a writer.
const (
	sharedRate   = 300             // read requests per second
	mutatePeriod = 2 * time.Second // one grow mutation per period
	growEdges    = 20              // edges each mutation inserts
	derivedPer   = 4               // derived queries per readDeck reads (2%)
	readDeck     = 200
)

// The shared-read graphs: one mapped, one registered mutable.
var sharedGraphs = []graphSpec{
	{"wiki-vote", "wiki-vote", 0.1, true},
	{"physics-2", "physics-2", 0.05, false},
	{"physics-1", "physics-1", 0.1, false},
}

const mutableGraph = "physics-1"

// hotSet is the (graph, seed, op) answers set-up fills: slem, bounds
// and cdf for six seeds on each static graph and three on the mutable
// one, plus one admission and one distmix on the mutable graph, so a
// mutation's re-solves reach every solver layer.
func hotSet(seed uint64) []api.Request {
	var out []api.Request
	add := func(g, op string, k uint64) {
		out = append(out, api.Request{Op: op, Graph: g, Params: opParams(op, seed<<8|k)})
	}
	for _, g := range sharedGraphs {
		seeds := uint64(6)
		if g.name == mutableGraph {
			seeds = 3
		}
		for k := uint64(1); k <= seeds; k++ {
			for _, op := range []string{api.OpSLEM, api.OpBounds, api.OpCDF} {
				add(g.name, op, k)
			}
		}
	}
	add(mutableGraph, api.OpAdmission, 1)
	add(mutableGraph, api.OpDistMix, 1)
	return out
}

// sharedRequest is read id of the stream: mostly an exact repeat of a
// hot query, and derivedPer of every readDeck a derived query — a hot
// (static graph, seed) asked for an ε or ε-list no request asked
// before, which today re-solves in full.
func sharedRequest(seed uint64, id int64, hot []api.Request) api.Request {
	rng := rand.New(rand.NewPCG(seed, uint64(id)))
	deck := rand.New(rand.NewPCG(seed, uint64(id/readDeck))).Perm(readDeck)
	if deck[id%readDeck] >= derivedPer {
		return hot[rng.IntN(len(hot))]
	}
	var static []api.Request
	for _, h := range hot {
		if h.Graph != mutableGraph && (h.Op == api.OpCDF || h.Op == api.OpBounds) {
			static = append(static, h)
		}
	}
	req := static[rng.IntN(len(static))]
	eps := 0.02 + float64(id)*1e-6
	if req.Op == api.OpCDF {
		req.Params.Eps = eps
	} else {
		req.Params.EpsList = []float64{0.25, eps}
	}
	return req
}

type sharedState struct {
	reg  *service.Registry
	d    *daemon
	dirs []string
}

func (s *sharedState) close() {
	if s.d != nil {
		s.d.stop()
	}
	if s.reg != nil {
		s.reg.Close() //nolint:errcheck // unmapping after serving stopped
	}
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

// sharedSetup builds the graphs, fills the hot set through a first
// server writing through to a fresh cache directory, and starts the
// timed server over that directory: the restart path, warm-load
// included.
func sharedSetup(e *env, hot []api.Request) (*sharedState, time.Duration, error) {
	t0 := time.Now()
	sid := e.tr.newID()
	st := &sharedState{}
	snap, err := os.MkdirTemp(e.dir, "snap-")
	if err != nil {
		return nil, 0, err
	}
	st.dirs = append(st.dirs, snap)
	cacheDir, err := os.MkdirTemp(e.dir, "cache-")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	st.dirs = append(st.dirs, cacheDir)
	if st.reg, err = buildRegistry(e, sharedGraphs, snap, sid); err != nil {
		st.close()
		return nil, 0, err
	}
	if _, err := st.reg.MakeMutable(mutableGraph, nil); err != nil {
		st.close()
		return nil, 0, err
	}
	fill, err := startDaemon(e, st.reg, cacheDir, sid, "fill")
	if err != nil {
		st.close()
		return nil, 0, err
	}
	w0 := time.Now()
	var wg sync.WaitGroup
	var next sync.Mutex
	k := 0
	wg.Add(e.nproc)
	for c := 0; c < e.nproc; c++ {
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := k
				k++
				next.Unlock()
				if i >= len(hot) {
					return
				}
				resp, err := fill.client.Query(context.Background(), hot[i])
				e.check.answer(int64(-1-i), hot[i], resp, err)
			}
		}()
	}
	wg.Wait()
	e.tr.record(0, sid, -1, "service.warmup", "", w0, time.Now())
	fill.stop()
	if st.d, err = startDaemon(e, st.reg, cacheDir, sid, "warm-load"); err != nil {
		st.close()
		return nil, 0, err
	}
	t1 := time.Now()
	e.tr.record(sid, 0, -1, "setup", "", t0, t1)
	return st, t1.Sub(t0), nil
}

// shadow replays the writer's mutations on the benchmark's own copy of
// the mutable graph: it checks each mutation's answer and keeps every
// epoch's graph (as the server's View sees it) and batch for replays.
type shadow struct {
	mg       *evolve.MutableGraph
	base     string         // the registration hash epochs stamp
	versions []*graph.Graph // by version: the largest component
	batches  []evolve.Batch // batch j produced version j+1
	ids      []int64        // the mutation's op id
}

func newShadow(ent *service.Entry) *shadow {
	return &shadow{mg: evolve.NewMutable(ent.Graph), base: ent.Hash, versions: []*graph.Graph{ent.Graph}}
}

func (s *shadow) apply(seed uint64, resp *api.MutateResponse) error {
	g, ver := s.mg.Snapshot()
	batch := evolve.GrowRandom(g, growEdges, rand.New(rand.NewPCG(seed, 0x6709)))
	res, err := s.mg.Apply(batch)
	if err != nil {
		return err
	}
	if resp.Version != uint64(ver)+1 || uint64(res.Version) != resp.Version || res.Inserted != resp.Inserted ||
		res.Nodes != resp.Nodes || res.Edges != resp.Edges || resp.Hash != fmt.Sprintf("%s@v%d", s.base, res.Version) {
		return fmt.Errorf("mutation answered %+v, the replayed batch gives %+v", resp, res)
	}
	next, _ := s.mg.Snapshot()
	if !graph.IsConnected(next) {
		next, _ = graph.LargestComponent(next)
	}
	s.versions = append(s.versions, next)
	s.batches = append(s.batches, batch)
	return nil
}

// version finds the epoch a mutable-graph answer was computed on from
// its fingerprint.
func (s *shadow) version(req api.Request, fp string) (int, bool) {
	for v := range s.versions {
		if api.Fingerprint(req, fmt.Sprintf("%s@v%d", s.base, v)) == fp {
			return v, true
		}
	}
	return 0, false
}

func runSharedRead(e *env) (*outcome, error) {
	o := newOutcome()
	hot := hotSet(e.seed)
	st, setup, err := repeatSetup(func() (*sharedState, time.Duration, error) { return sharedSetup(e, hot) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.e2e["setup_s"] = setup
	e.logf("shared-read: set-up %.3f s (median of %d), timed phase %d s", o.e2e["setup_s"], setupRuns, e.seconds)

	ent, _ := st.reg.Get(mutableGraph)
	sh := newShadow(ent)
	var mu sync.Mutex
	recs := map[int64]*reqRecord{}
	var mutations []sample
	ph := beginPhase()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := int64(1); time.Duration(j)*mutatePeriod < e.duration(); j++ {
			due := ph.start.Add(time.Duration(j) * mutatePeriod)
			time.Sleep(time.Until(due))
			id := 1_000_000 + j
			seed := e.seed<<32 | uint64(j)
			sent := time.Now()
			resp, err := st.d.client.Mutate(context.Background(), api.MutateRequest{Graph: mutableGraph, Grow: growEdges, Seed: seed})
			done := time.Now()
			e.tr.record(0, 0, id, "loadgen.mutate", "", due, done)
			mutations = append(mutations, sample{id: id, due: due, sent: sent, done: done, lateBy: sent.Sub(due)})
			if err == nil && resp.Error != "" {
				err = fmt.Errorf("error field %q", resp.Error)
			}
			if err == nil {
				err = sh.apply(seed, resp)
			}
			if err != nil {
				e.check.fail("mutation %d: %v", j, err)
				continue
			}
			mu.Lock()
			sh.ids = append(sh.ids, id)
			mu.Unlock()
		}
	}()
	samples := openLoop(e.nproc, sharedRate, e.duration(), func(id int64, due time.Time) time.Time {
		req := sharedRequest(e.seed, id, hot)
		resp, done, err := query(e, st.d, id, req, due)
		ok := e.check.answer(id, req, resp, err)
		mu.Lock()
		recs[id] = &reqRecord{req: req, resp: resp, ok: ok}
		mu.Unlock()
		return done
	})
	wg.Wait()
	ops := int64(len(samples) + len(mutations))
	ph.end(o, ops)
	o.attempted = ops
	if err := latencyMetrics(o, samples); err != nil {
		return nil, err
	}
	o.e2e["mutate_p50_ms"] = median(latenciesMS(mutations))
	o.e2e["failed_share"] = float64(e.check.failures()) / float64(o.attempted)
	o.notef("service: %.0f requests, %.0f hits, %.0f solves, %.0f joins, %.0f evictions, %d mutations",
		st.d.counter(telemetry.ServiceRequests), st.d.counter(telemetry.ServiceCacheHits),
		st.d.counter(telemetry.ServiceSolves), st.d.counter(telemetry.ServiceJoins),
		st.d.counter(telemetry.ServiceEvictions), len(mutations))
	if e.tr == nil {
		return o, nil
	}

	serviceLayers(o, st.d)
	setupLayers(o, e.tr)
	// Replay each distinct miss once, on the epoch it was solved on.
	rp := newReplayer(e)
	graphOf := func(id int64) (*graph.Graph, string, bool) {
		r := recs[id]
		if r.req.Graph != mutableGraph {
			ent, _ := st.reg.Get(r.req.Graph)
			return ent.Graph, ent.Hash, true
		}
		v, ok := sh.version(r.req, r.resp.Fingerprint)
		if !ok {
			return nil, "", false
		}
		return sh.versions[v], fmt.Sprintf("%s@v%d", sh.base, v), true
	}
	missed := map[string]bool{}
	for _, s := range samples {
		r := recs[s.id]
		if !r.ok || r.resp.CacheHit || missed[r.resp.Fingerprint] {
			continue
		}
		missed[r.resp.Fingerprint] = true
		g, _, ok := graphOf(s.id)
		if !ok {
			e.check.fail("request %d: fingerprint %.16s matches no epoch of %s", s.id, r.resp.Fingerprint, mutableGraph)
			continue
		}
		if err := rp.replay(s.id, r.req.Graph, r.req, g, r.resp); err != nil {
			e.check.fail("%v", err)
		}
	}
	rp.replayLayers(o)
	requestLayers(o, e, samples, recs, func(id int64) string {
		_, h, _ := graphOf(id)
		return h
	}, rp)
	// Replay the writer's batches on a fresh copy of epoch 0.
	col := telemetry.New()
	mg := evolve.NewMutable(sh.versions[0])
	mg.SetCollector(col)
	for j, b := range sh.batches {
		t0 := time.Now()
		if _, err := mg.Apply(b); err != nil {
			e.check.fail("replay of mutation %d: %v", j+1, err)
		}
		e.tr.record(0, 0, sh.ids[j], "evolve.apply", "", t0, time.Now())
	}
	o.layers["evolve.apply_p50_ms"] = median(spanMS(e.tr.named("evolve.apply")))
	o.layers["evolve.epochs"] = float64(col.Count(telemetry.EvolveEpochs))
	o.layers["evolve.edges_inserted"] = float64(col.Count(telemetry.EvolveEdgesInserted))
	return o, nil
}
