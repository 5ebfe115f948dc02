package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Response-body limits: the default query limit and the fixed mutate
// limit. Large enough for any real payload (a full-mesh CDF over a
// scaled Table-1 graph is tens of MB at most); small enough that a
// misbehaving endpoint cannot balloon the client. A body that hits
// the limit is an explicit error, never a silent truncation.
const (
	DefaultMaxQueryBody = 64 << 20
	maxMutateBody       = 16 << 20
)

// maxBackoff caps a single backoff sleep between retries.
const maxBackoff = 5 * time.Second

// StatusError is a server-reported failure: the daemon answered with
// a non-2xx status and (usually) a decodable error envelope. It
// carries the status code and any Retry-After hint so callers — the
// retry loop here, the mixload report — can classify without string
// matching.
type StatusError struct {
	// StatusCode is the HTTP status, e.g. 429.
	StatusCode int
	// Status is the full status line, e.g. "429 Too Many Requests".
	Status string
	// Msg is the server's error message (or the status text when the
	// envelope carried none).
	Msg string
	// RetryAfter is the parsed Retry-After hint, 0 when absent.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return fmt.Sprintf("api: %s: %s", e.Status, e.Msg) }

// IsShed reports whether err is a 429 admission-control rejection:
// the daemon was overloaded and never started the work. Sheds are
// expected under deliberate overload and are worth counting apart
// from real failures.
func IsShed(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.StatusCode == http.StatusTooManyRequests
}

// ClientMetrics is a snapshot of the client's resilience counters.
type ClientMetrics struct {
	// Retries is how many attempts were re-issued after a retryable
	// failure.
	Retries int64
	// Sheds is how many 429 responses were received (each is also a
	// retry when budget remains).
	Sheds int64
	// Hedges is how many hedge requests were launched.
	Hedges int64
	// HedgeWins is how many of those finished before the primary.
	HedgeWins int64
}

// Client is the SDK the mixload generator (and tests) use to talk to
// a mixtimed daemon. The zero value is not usable; construct with
// NewClient. Resilience is opt-in: with MaxRetries zero the client
// behaves like a plain one-shot HTTP caller.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7411".
	BaseURL string
	// HTTPClient is the transport; NewClient installs a default with
	// sane timeouts.
	HTTPClient *http.Client

	// MaxRetries caps re-issues per Query/Mutate call (0 = no
	// retries). Query retries transport errors and retryable statuses
	// (429/500/502/503/504); Mutate, being non-idempotent, retries
	// only statuses that guarantee the batch was not applied (429 and
	// 503).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff between retries
	// (0 = 100ms). Each retry doubles it, capped at 5s, with ±50%
	// jitter; a server Retry-After hint overrides the computed wait
	// when larger.
	BaseBackoff time.Duration
	// HedgeDelay, when positive, arms hedged queries: if an attempt
	// has not answered within this delay, a duplicate is issued and
	// the first response wins (the loser is cancelled). Only Query
	// hedges — it is idempotent and the daemon's singleflight collapses
	// duplicate solves, so a hedge is cheap when the answer is cached
	// and harmless when it is not.
	HedgeDelay time.Duration
	// MaxQueryBody bounds query response bodies
	// (0 = DefaultMaxQueryBody).
	MaxQueryBody int64

	retries   atomic.Int64
	sheds     atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// NewClient returns a client for the daemon at baseURL ("host:port"
// is accepted and gets the scheme prepended).
func NewClient(baseURL string) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 5 * time.Minute},
	}
}

// Metrics snapshots the resilience counters.
func (c *Client) Metrics() ClientMetrics {
	return ClientMetrics{
		Retries:   c.retries.Load(),
		Sheds:     c.sheds.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
	}
}

// Query posts req to /v1/query and decodes the response. A non-2xx
// status with a decodable Response body returns that response along
// with a *StatusError carrying its Error field, so callers can
// distinguish server-reported failures from transport ones.
//
// With MaxRetries set, transport errors and retryable statuses are
// re-issued under exponential backoff with jitter, honoring any
// Retry-After hint the server sent. With HedgeDelay set, a slow
// attempt races a duplicate and the first answer wins.
func (c *Client) Query(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: marshal request: %w", err)
	}
	var resp *Response
	err = c.withRetries(ctx, queryRetryable, func() error {
		var aerr error
		resp, aerr = c.queryAttempt(ctx, body)
		return aerr
	})
	return resp, err
}

// queryAttempt issues one (possibly hedged) query.
func (c *Client) queryAttempt(ctx context.Context, body []byte) (*Response, error) {
	if c.HedgeDelay <= 0 {
		return c.queryOnce(ctx, body)
	}
	type result struct {
		resp  *Response
		err   error
		hedge bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once the winner returns
	results := make(chan result, 2)
	issue := func(hedge bool) {
		go func() {
			resp, err := c.queryOnce(hctx, body)
			results <- result{resp, err, hedge}
		}()
	}
	issue(false)
	launched := 1
	timer := time.NewTimer(c.HedgeDelay)
	defer timer.Stop()
	var firstFailure *result
	for {
		select {
		case <-timer.C:
			if launched == 1 {
				c.hedges.Add(1)
				issue(true)
				launched++
			}
		case r := <-results:
			if r.err == nil {
				if r.hedge {
					c.hedgeWins.Add(1)
				}
				return r.resp, nil
			}
			if launched == 1 {
				// Sole attempt failed before the hedge was due: fail now,
				// the retry loop (if armed) takes over.
				return r.resp, r.err
			}
			if firstFailure == nil {
				firstFailure = &r
				continue // the other attempt may still succeed
			}
			// Both failed; report the primary's error.
			if r.hedge {
				r = *firstFailure
			}
			return r.resp, r.err
		}
	}
}

// queryOnce is a single wire round trip.
func (c *Client) queryOnce(ctx context.Context, body []byte) (*Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.HTTPClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	defer hres.Body.Close()
	limit := c.MaxQueryBody
	if limit <= 0 {
		limit = DefaultMaxQueryBody
	}
	raw, err := readLimited(hres.Body, limit)
	if err != nil {
		return nil, fmt.Errorf("api: read response: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("api: status %d, undecodable body: %w", hres.StatusCode, err)
	}
	if hres.StatusCode != http.StatusOK {
		return &resp, statusError(hres, resp.Error)
	}
	return &resp, nil
}

// Mutate posts req to /v1/mutate and decodes the response, with the
// same error contract as Query. Mutations are not idempotent, so with
// MaxRetries set only rejections that provably did not apply the
// batch — 429 (shed) and 503 (draining) — are retried; transport
// errors and 5xx surprises surface immediately rather than risk a
// double apply.
func (c *Client) Mutate(ctx context.Context, req MutateRequest) (*MutateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: marshal mutate request: %w", err)
	}
	var resp *MutateResponse
	err = c.withRetries(ctx, mutateRetryable, func() error {
		var aerr error
		resp, aerr = c.mutateOnce(ctx, body)
		return aerr
	})
	return resp, err
}

func (c *Client) mutateOnce(ctx context.Context, body []byte) (*MutateResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/mutate", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.HTTPClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	defer hres.Body.Close()
	raw, err := readLimited(hres.Body, maxMutateBody)
	if err != nil {
		return nil, fmt.Errorf("api: read mutate response: %w", err)
	}
	var resp MutateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("api: status %d, undecodable body: %w", hres.StatusCode, err)
	}
	if hres.StatusCode != http.StatusOK {
		return &resp, statusError(hres, resp.Error)
	}
	return &resp, nil
}

// withRetries runs attempt, re-issuing retryable failures under
// backoff until success, a terminal error, retry exhaustion, or ctx
// death.
func (c *Client) withRetries(ctx context.Context, retryable func(error) bool, attempt func() error) error {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	for try := 0; ; try++ {
		err := attempt()
		if err == nil {
			return nil
		}
		if IsShed(err) {
			c.sheds.Add(1)
		}
		if try >= c.MaxRetries || ctx.Err() != nil || !retryable(err) {
			return err
		}
		// Exponential backoff with ±50% jitter; a larger server hint
		// wins (the daemon knows when it expects to drain).
		wait := maxBackoff
		if try < 20 { // base<<try overflows long before this
			wait = min(base<<try, maxBackoff)
		}
		wait = time.Duration(float64(wait) * (0.5 + rand.Float64()))
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > wait {
			wait = se.RetryAfter
		}
		c.retries.Add(1)
		select {
		case <-ctx.Done():
			return err
		case <-time.After(wait):
		}
	}
}

// queryRetryable: transport errors and the transient statuses.
// Queries are idempotent (and deduplicated server-side), so retrying
// is always safe.
func queryRetryable(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return true // transport error
	}
	switch se.StatusCode {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// mutateRetryable: only statuses that guarantee the batch was never
// applied.
func mutateRetryable(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	return se.StatusCode == http.StatusTooManyRequests ||
		se.StatusCode == http.StatusServiceUnavailable
}

// statusError builds the typed error for a non-2xx response.
func statusError(hres *http.Response, msg string) *StatusError {
	if msg == "" {
		msg = http.StatusText(hres.StatusCode)
	}
	return &StatusError{
		StatusCode: hres.StatusCode,
		Status:     hres.Status,
		Msg:        msg,
		RetryAfter: parseRetryAfter(hres.Header.Get("Retry-After")),
	}
}

// parseRetryAfter handles both Retry-After forms: delta-seconds and
// an HTTP date. Unparseable or absent values are 0 (no hint).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// readLimited reads the whole body up to limit bytes, failing loudly
// when the limit is hit instead of silently handing back a truncated
// (and undecodable-or-worse) prefix.
func readLimited(r io.Reader, limit int64) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("response exceeds the %d-byte client limit", limit)
	}
	return raw, nil
}

// Graphs fetches the daemon's registry listing.
func (c *Client) Graphs(ctx context.Context) (*GraphsResponse, error) {
	var out GraphsResponse
	if err := c.getJSON(ctx, "/v1/graphs", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz reports whether the daemon answers its health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	hres, err := c.HTTPClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return fmt.Errorf("api: healthz: %s", hres.Status)
	}
	return nil
}

// WaitReady polls /healthz every 50ms until the daemon answers or
// ctx expires.
func (c *Client) WaitReady(ctx context.Context) error {
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("api: daemon not ready: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	hres, err := c.HTTPClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		io.Copy(io.Discard, hres.Body)
		return fmt.Errorf("api: %s: %s", path, hres.Status)
	}
	if err := json.NewDecoder(hres.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s: %w", path, err)
	}
	return nil
}
