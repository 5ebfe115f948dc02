package main

import (
	"fmt"
	"sort"
	"time"

	"mixtime/internal/api"
)

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// attribution splits one replayed request's latency into the layer
// times measured for it.
type attribution struct {
	latency, client, transport, vf, solve float64 // ms
}

func (a attribution) unattributed() float64 {
	return a.latency - a.client - a.transport - a.vf - a.solve
}

// requestLayers derives the api and service per-layer metrics of a
// traced daemon pass from its request spans, replays Request.Validate
// and api.Fingerprint on every answered request (checking the
// fingerprint it reproduces), and attributes the latency of the
// replayed requests to layers: the load generator's own time, the api
// transport (the Client.Query span minus the handler span), the
// validate+fingerprint replay and the replayed solve. The remainder —
// JSON decoding and encoding, cache bookkeeping, pool hand-off, and
// any difference between the solve as served and as replayed — is
// printed as unattributed, over all replayed requests and over the
// median band (the 40th to 60th latency percentile), whose share is
// the attribution.unattributed_share metric.
func requestLayers(o *outcome, e *env, samples []sample, recs map[int64]*reqRecord, graphHash func(id int64) string, rp *replayer) {
	tr := e.tr
	handles := indexByReq(tr.named("service.handle"))
	queries := indexByReq(tr.named("api.query"))
	requests := indexByReq(tr.named("loadgen.request"))
	var transport, hit, miss, overhead, vf []float64
	var attrs []attribution
	for _, s := range samples {
		r := recs[s.id]
		q, h, l := queries[s.id], handles[s.id], requests[s.id]
		if r == nil || !r.ok || len(q) != 1 || len(h) != 1 || len(l) != 1 {
			continue
		}
		tx := nsToMS(selfTime(q[0].interval(), []interval{h[0].interval()}))
		transport = append(transport, tx)
		if r.resp.CacheHit {
			hit = append(hit, h[0].ms())
		} else {
			miss = append(miss, h[0].ms())
		}
		t0 := time.Now()
		err := r.req.Validate()
		fp := api.Fingerprint(r.req, graphHash(s.id))
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil || fp != r.resp.Fingerprint {
			e.check.fail("request %d: replayed validate/fingerprint gave %.16s (%v), served %.16s", s.id, fp, err, r.resp.Fingerprint)
			continue
		}
		vf = append(vf, us)
		solve, replayed := rp.solve[s.id]
		if !replayed {
			continue
		}
		overhead = append(overhead, h[0].ms()-solve)
		attrs = append(attrs, attribution{
			latency:   l[0].ms(),
			client:    nsToMS(selfTime(l[0].interval(), []interval{q[0].interval()})),
			transport: tx,
			vf:        us / 1e3,
			solve:     solve,
		})
	}
	o.layers["api.transport_p50_ms"] = median(transport)
	o.layers["api.validate_fingerprint_us"] = median(vf)
	o.layers["service.handle_hit_p50_ms"] = median(hit)
	o.layers["service.handle_miss_p50_ms"] = median(miss)
	o.layers["service.overhead_miss_p50_ms"] = median(overhead)
	o.layers["loadgen.late_p99_ms"] = quantile(latesMS(samples), 0.99)
	if len(attrs) == 0 {
		return
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].latency < attrs[j].latency })
	band := attrs[len(attrs)*2/5 : max(len(attrs)*3/5, len(attrs)*2/5+1)]
	o.notef("%s", attributionLine("all replayed misses", attrs))
	o.notef("%s", attributionLine("median band p40-p60", band))
	o.layers["attribution.unattributed_share"] = meanOf(band, attribution.unattributed) / meanOf(band, func(a attribution) float64 { return a.latency })
}

func meanOf(as []attribution, f func(attribution) float64) float64 {
	var sum float64
	for _, a := range as {
		sum += f(a)
	}
	return sum / float64(len(as))
}

func attributionLine(label string, as []attribution) string {
	lat := meanOf(as, func(a attribution) float64 { return a.latency })
	un := meanOf(as, attribution.unattributed)
	return fmt.Sprintf("attribution, %s (n=%d), mean ms: latency %.3f = loadgen %.3f + api transport %.3f + validate/fingerprint %.4f + solve %.3f + unattributed %.3f (%.1f%%)",
		label, len(as), lat, meanOf(as, func(a attribution) float64 { return a.client }),
		meanOf(as, func(a attribution) float64 { return a.transport }),
		meanOf(as, func(a attribution) float64 { return a.vf }),
		meanOf(as, func(a attribution) float64 { return a.solve }), un, 100*un/lat)
}
