package main

import (
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"mixtime/internal/api"
	"mixtime/internal/graph"
	"mixtime/internal/service"
	"mixtime/internal/telemetry"
)

// The cold-solve graphs: a fast-mixing online substitute, a slow trust
// substitute, and a mapped graph whose CSR plus Lanczos basis (20k
// nodes, 400k edges, ~25 MB) is several times a 4 MiB L2.
var coldGraphs = []graphSpec{
	{"wiki-vote", "wiki-vote", 0.1, false},
	{"physics-1", "physics-1", 0.1, false},
	{"facebook-A-big", "facebook-A", 0.02, true},
}

// deckSlot is how many of every deckSize consecutive requests ask op
// of graph. Fixed shares keep a run's mix, and with it throughput and
// the p99, the same from seed to seed: the big graph takes 1.5% of the
// requests, so the p99 falls inside its cdf requests. Its slem share is
// kept at 0.25%: a sharded Lanczos solve there runs ~120 fan-out/join
// steps over both cores, and a larger share made throughput swing with
// host load by several times as much.
type deckSlot struct {
	graph, op string
	n         int
}

const deckSize = 400

var coldDeck = []deckSlot{
	{"wiki-vote", api.OpSLEM, 72}, {"wiki-vote", api.OpBounds, 60}, {"wiki-vote", api.OpCDF, 80}, {"wiki-vote", api.OpDistMix, 8},
	{"physics-1", api.OpSLEM, 60}, {"physics-1", api.OpBounds, 40}, {"physics-1", api.OpCDF, 50},
	{"physics-1", api.OpAdmission, 16}, {"physics-1", api.OpDistMix, 8},
	{"facebook-A-big", api.OpSLEM, 1}, {"facebook-A-big", api.OpCDF, 5},
}

// opParams are the knobs every request of op carries beside its seed:
// small enough that a request costs milliseconds on the small graphs.
func opParams(op string, seed uint64) api.Params {
	p := api.Params{Seed: seed}
	switch op {
	case api.OpCDF:
		p.Sources, p.MaxWalk = 16, 100
	case api.OpAdmission:
		p.Sources, p.MaxWalk = 16, 15
	case api.OpDistMix:
		p.Sources, p.DistWalks, p.DistRounds = 8, 4, 60
	}
	return p
}

// shuffledDeck returns deck number k of a seed's request stream.
func shuffledDeck(deck []deckSlot, seed uint64, k int64) []deckSlot {
	var out []deckSlot
	for _, s := range deck {
		for i := 0; i < s.n; i++ {
			out = append(out, s)
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(k)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldRequest is request id of the stream: its slot in the shuffled
// deck, and a seed no other request of the run shares.
func coldRequest(seed uint64, id int64) api.Request {
	s := shuffledDeck(coldDeck, seed, id/deckSize)[id%deckSize]
	return api.Request{Op: s.op, Graph: s.graph, Params: opParams(s.op, seed<<32|uint64(id))}
}

// replayPrefix is how many of cold-solve's first requests the traced
// pass replays: a fixed prefix, so the replay counters of a seed
// repeat exactly whatever the run's throughput. Power iteration, ~30x
// a Lanczos solve there, is re-timed on the first powerBudget slem or
// bounds requests on physics-1, the smallest graph.
const (
	replayPrefix = 150
	powerBudget  = 5
)

type coldState struct {
	reg  *service.Registry
	d    *daemon
	snap string
}

func (s *coldState) close() {
	if s.d != nil {
		s.d.stop()
	}
	if s.reg != nil {
		s.reg.Close() //nolint:errcheck // unmapping after serving stopped
	}
	os.RemoveAll(s.snap)
}

func coldSetup(e *env) (*coldState, time.Duration, error) {
	t0 := time.Now()
	sid := e.tr.newID()
	st := &coldState{}
	var err error
	if st.snap, err = os.MkdirTemp(e.dir, "snap-"); err != nil {
		return nil, 0, err
	}
	if st.reg, err = buildRegistry(e, coldGraphs, st.snap, sid); err != nil {
		st.close()
		return nil, 0, err
	}
	if st.d, err = startDaemon(e, st.reg, "", sid, "serve"); err != nil {
		st.close()
		return nil, 0, err
	}
	t1 := time.Now()
	e.tr.record(sid, 0, -1, "setup", "", t0, t1)
	return st, t1.Sub(t0), nil
}

func runColdSolve(e *env) (*outcome, error) {
	o := newOutcome()
	st, setup, err := repeatSetup(func() (*coldState, time.Duration, error) { return coldSetup(e) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.e2e["setup_s"] = setup
	e.logf("cold-solve: set-up %.3f s (median of %d), timed phase %d s", o.e2e["setup_s"], setupRuns, e.seconds)

	var mu sync.Mutex
	recs := map[int64]*reqRecord{}
	ph := beginPhase()
	samples := closedLoop(e.nproc, e.duration(), func(id int64, due time.Time) time.Time {
		req := coldRequest(e.seed, id)
		resp, done, err := query(e, st.d, id, req, due)
		ok := e.check.answer(id, req, resp, err)
		mu.Lock()
		recs[id] = &reqRecord{req: req, resp: resp, ok: ok}
		mu.Unlock()
		return done
	})
	ph.end(o, int64(len(samples)))
	o.attempted = int64(len(samples))
	if err := latencyMetrics(o, samples); err != nil {
		return nil, err
	}
	solves, requests := st.d.counter(telemetry.ServiceSolves), st.d.counter(telemetry.ServiceRequests)
	o.notef("service: %.0f requests, %.0f solves (solves must equal requests: every request a fresh seed)", requests, solves)
	if solves != requests {
		e.check.fail("cold-solve: %.0f solves for %.0f requests", solves, requests)
	}
	o.e2e["failed_share"] = float64(e.check.failures()) / float64(o.attempted)
	if e.tr == nil {
		return o, nil
	}

	serviceLayers(o, st.d)
	setupLayers(o, e.tr)
	// The prefix replays run nproc at a time, the concurrency the
	// closed loop solved them at, so the attribution compares like with
	// like; the re-baseline variants then run one at a time.
	rp := newReplayer(e)
	var ids []int64
	for id := int64(0); id < replayPrefix && id < int64(len(samples)); id++ {
		if recs[id].ok {
			ids = append(ids, id)
		}
	}
	graphOf := func(id int64) *graph.Graph {
		ent, _ := st.reg.Get(recs[id].req.Graph)
		return ent.Graph
	}
	closedLoopOver(e.nproc, ids, func(id int64) {
		r := recs[id]
		if err := rp.replay(id, r.req.Graph, r.req, graphOf(id), r.resp); err != nil {
			e.check.fail("%v", err)
		}
	})
	power := powerBudget
	for _, id := range ids {
		r := recs[id]
		onSmallest := r.req.Graph == coldGraphs[1].name
		if err := rp.variants(id, r.req, graphOf(id), r.resp, onSmallest && power > 0); err != nil {
			e.check.fail("variant replay of request %d: %v", id, err)
		}
		if onSmallest && (r.req.Op == api.OpSLEM || r.req.Op == api.OpBounds) {
			power--
		}
	}
	rp.replayLayers(o)
	hashes := func(id int64) string {
		ent, _ := st.reg.Get(recs[id].req.Graph)
		return ent.Hash
	}
	requestLayers(o, e, samples, recs, hashes, rp)
	return o, nil
}
