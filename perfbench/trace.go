package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"` // -1 when the span serves no request
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a pre-allocated id (0 allocates
// one) and returns the id.
func (t *tracer) record(id, parent, req int64, name, tag string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request and parent span ids travel from the load generator to the
// server-side wrapper in these headers; the daemon ignores them.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Span"
)

type spanRefKey struct{}

type spanRef struct{ req, parent int64 }

func withSpanRef(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanRefKey{}, spanRef{req, parent})
}

// tracingTransport stamps the request's span reference on the wire.
type tracingTransport struct{ base http.RoundTripper }

func (t tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanRefKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(ref.parent, 10))
	}
	return t.base.RoundTrip(r)
}

// traceHandler wraps the daemon's handler in a service.handle span.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := int64(-1), int64(0)
		if v, err := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64); err == nil {
			req = v
		}
		if v, err := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64); err == nil {
			parent = v
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(0, parent, req, "service.handle", r.URL.Path, start, time.Now())
	})
}

// spanIndex groups spans for per-request lookups.
type spanIndex map[int64][]span // by Req

func indexByReq(spans []span) spanIndex {
	idx := spanIndex{}
	for _, s := range spans {
		idx[s.Req] = append(idx[s.Req], s)
	}
	return idx
}

// spanMS returns each span's duration in milliseconds.
func spanMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

func tracePath(dir, workload string, seed uint64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
